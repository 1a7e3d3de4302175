package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"time"
)

// span is one traced interval. Parent indexes the span that caused it
// in the same file (-1 for a root); spans of one transaction share Txn.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Txn    int64  `json:"txn"`
}

// tracer keeps spans in memory until the benchmark ends. Spans are
// recorded from the benchmark's own files, around its calls into each
// layer; spans inside the program are a later change. Only the
// harness's main goroutine touches it: streams and rungs collect their
// spans locally and hand them over when they are done.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) at(x time.Time) int64 { return x.Sub(t.epoch).Nanoseconds() }

// open starts a root span (a phase or a ladder rung); close ends it.
func (t *tracer) open(name string) int {
	t.spans = append(t.spans, span{Name: name, Start: t.at(time.Now()), Parent: -1})
	return len(t.spans) - 1
}

func (t *tracer) close(i int) { t.spans[i].End = t.at(time.Now()) }

// addAll appends spans recorded elsewhere as children of parent.
func (t *tracer) addAll(parent int, ss []span) {
	for _, s := range ss {
		s.Parent = parent
		t.spans = append(t.spans, s)
	}
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// adminSnap is one /metrics?format=json scrape of the node's admin
// endpoint: counters and gauges as numbers, histograms as objects.
type adminSnap map[string]json.RawMessage

func scrapeAdmin(addr string) (adminSnap, error) {
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get("http://" + addr + "/metrics?format=json")
	if err != nil {
		return nil, fmt.Errorf("admin scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("admin scrape: %s", resp.Status)
	}
	var out adminSnap
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("admin scrape: %w", err)
	}
	return out, nil
}

func (a adminSnap) num(name string) float64 {
	var v float64
	_ = json.Unmarshal(a[name], &v) // absent or non-numeric reads as 0
	return v
}

// hist is a histogram as the admin endpoint renders it: cumulative
// bucket counts by inclusive upper bound, the last bound being +Inf.
type hist struct {
	Buckets []struct {
		LE    string `json:"le"`
		Count int64  `json:"count"`
	} `json:"buckets"`
	Sum   float64 `json:"sum"`
	Count int64   `json:"count"`
}

func (a adminSnap) hist(name string) hist {
	var h hist
	_ = json.Unmarshal(a[name], &h) // absent reads as empty
	return h
}

// sub returns the observations made between two scrapes.
func (h hist) sub(before hist) hist {
	if len(before.Buckets) != len(h.Buckets) {
		return h
	}
	d := hist{Sum: h.Sum - before.Sum, Count: h.Count - before.Count}
	d.Buckets = append(d.Buckets, h.Buckets...)
	for i := range d.Buckets {
		d.Buckets[i].Count -= before.Buckets[i].Count
	}
	return d
}

func (h hist) mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

func upperBound(le string) float64 {
	v, err := strconv.ParseFloat(le, 64)
	if err != nil {
		return math.Inf(1) // "+Inf"
	}
	return v
}

// quantile estimates quantile q by linear interpolation inside the
// bucket that holds it; in the open last bucket it returns the highest
// finite bound. It is as coarse as the node's bucket layout.
func (h hist) quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	lo, prev := 0.0, int64(0)
	for _, b := range h.Buckets {
		hi := upperBound(b.LE)
		if float64(b.Count) >= rank && b.Count > prev {
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*(rank-float64(prev))/float64(b.Count-prev)
		}
		if !math.IsInf(hi, 1) {
			lo = hi
		}
		prev = b.Count
	}
	return lo
}

// maxBound is the upper bound of the highest non-empty bucket: the
// tightest ceiling the histogram gives for its largest observation.
func (h hist) maxBound() float64 {
	top, lo, prev := 0.0, 0.0, int64(0)
	for _, b := range h.Buckets {
		hi := upperBound(b.LE)
		if b.Count > prev {
			top = hi
			if math.IsInf(hi, 1) {
				top = lo
			}
		}
		if !math.IsInf(hi, 1) {
			lo = hi
		}
		prev = b.Count
	}
	return top
}
