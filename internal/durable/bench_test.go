package durable

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// BenchmarkGroupCommit measures the leader-loop group commit: b.N
// single-record commits split over closed-loop committers, through a
// log whose every fsync takes a fixed 200 µs. ns/op is wall time per
// commit; commits/fsync is the batch size the flusher reached.
func BenchmarkGroupCommit(b *testing.B) {
	for _, committers := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("committers=%d", committers), func(b *testing.B) {
			s := &Set{opts: Options{Mode: SyncGroup}}
			s.log = newLog(s, &slowFile{delay: 200 * time.Microsecond}, "", 0, 0)
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < committers; c++ {
				n := b.N / committers
				if c < b.N%committers {
					n++
				}
				wg.Add(1)
				go func(name string, n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if err := s.LogCommit(commit(w(name, int64(i)))).Wait(); err != nil {
							b.Error(err)
							return
						}
					}
				}(fmt.Sprintf("e%d", c), n)
			}
			wg.Wait()
			b.StopTimer()
			st := s.Stats()
			b.ReportMetric(float64(st.Commits)/float64(st.Fsyncs), "commits/fsync")
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
