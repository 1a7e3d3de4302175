package node

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"partialrollback/internal/checkpoint"
)

// childEnv makes a re-executed test binary a child node instead of a
// test run. Its value is "<kind>:<wal dir>"; see crashConfig.
const childEnv = "NODE_TEST_CHILD"

func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		runChild(spec)
	}
	os.Exit(m.Run())
}

// crashConfig is the crash rounds' node: 16 counters behind a
// group-commit WAL. Kind "ckpt" adds a checkpoint every 120 ms with
// every crash window widened by 30 ms; "paged" adds the same on a paged
// store of 64 entities through a 2-page pool. checkpoints false leaves
// the checkpointer out, as the in-process recovery nodes do.
func crashConfig(dir, kind string, checkpoints bool) Config {
	cfg := testConfig()
	cfg.Entities, cfg.WAL = 16, dir
	if kind == "paged" {
		cfg.Entities, cfg.Store, cfg.PoolPages, cfg.PageSize = 64, "paged", 2, 128
	}
	if kind != "plain" && checkpoints {
		cfg.CheckpointInterval, cfg.Retain, cfg.phaseDelay = 120*time.Millisecond, 2, 30*time.Millisecond
	}
	return cfg
}

// runChild serves a crash round's node, prints its address on stdout,
// and exits when stdin closes — normally the parent kills it first.
func runChild(spec string) {
	kind, dir, _ := strings.Cut(spec, ":")
	log.SetFlags(0)
	n, err := Start(crashConfig(dir, kind, true))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(n.Addr())
	io.Copy(io.Discard, os.Stdin)
	os.Exit(0)
}

// child is a node in a re-executed test binary, so kill -9 is a real
// process death.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser // held open: the child exits when it closes
	addr  string
	log   bytes.Buffer // read only once the process has been reaped
	dead  bool
}

func startChild(t *testing.T, dir, kind string) *child {
	t.Helper()
	c := &child{cmd: exec.Command(os.Args[0])}
	c.cmd.Env = append(os.Environ(), childEnv+"="+kind+":"+dir)
	c.cmd.Stderr = &c.log
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if c.stdin, err = c.cmd.StdinPipe(); err != nil {
		t.Fatal(err)
	}
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.kill)
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		c.kill()
		t.Fatalf("child node never came up: %v\n%s", err, c.log.String())
	}
	c.addr = strings.TrimSpace(line)
	return c
}

// kill is kill -9 plus reaping.
func (c *child) kill() {
	if !c.dead {
		c.dead = true
		c.cmd.Process.Kill()
		c.cmd.Wait()
	}
}

// newestCheckpoint returns the highest frontier among dir's published
// checkpoints (0 if none).
func newestCheckpoint(t *testing.T, dir string) (newest uint64, count int) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	for _, e := range ents {
		if f, ok := checkpoint.ParseFileName(e.Name()); ok {
			newest, count = max(newest, f), count+1
		}
	}
	return newest, count
}

// crashRound starts a child node over dir and drives 8 counter clients
// (MaxAttempts 1) at it over e0..e{counters-1}. Once 100 commits are
// acknowledged — and, for checkpointing kinds, a checkpoint newer than
// the round's start is published — it waits delay more, kills the child
// with SIGKILL and returns the acknowledged count.
func crashRound(t *testing.T, dir, kind string, counters int, seed int64, delay time.Duration) int64 {
	t.Helper()
	before, _ := newestCheckpoint(t, dir)
	c := startChild(t, dir, kind)
	l := startLoad(c.addr, 4, 8, 4000, counters, 1, seed)
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		newest, _ := newestCheckpoint(t, dir)
		if l.acked.Load() >= 100 && (kind == "plain" || newest > before) {
			break
		}
		if time.Now().After(deadline) {
			c.kill()
			l.wait()
			t.Fatalf("%s round: %d acks and no new checkpoint after 30s\n%s", kind, l.acked.Load(), c.log.String())
		}
	}
	time.Sleep(delay)
	c.kill()
	acked, _ := l.wait() // every client fails once the node dies
	return acked
}

// recoverSum restarts the node in process over cfg's WAL, requires a
// recovery without mid-log corruption or skipped checkpoints, reads the
// counters' sum and shuts the node down cleanly. It reports whether
// recovery started from a checkpoint.
func recoverSum(t *testing.T, cfg Config) (sum int64, fromCheckpoint bool) {
	t.Helper()
	n := start(t, cfg)
	if rec := n.rec; len(rec.CorruptFiles) > 0 || len(rec.SkippedCheckpoints) > 0 {
		t.Fatalf("recovery reported damage: corrupt %v, skipped checkpoints %v", rec.CorruptFiles, rec.SkippedCheckpoints)
	}
	fromCheckpoint = n.rec.CheckpointFile != ""
	sum = readSum(t, n.Addr(), cfg.Entities)
	shutdown(t, n)
	return sum, fromCheckpoint
}

// TestCrashRecovery is the durability gate: kill -9 a WAL-backed node
// mid-load, recover over the same directory, and prove by arithmetic
// that every acknowledged commit survived. Each commit adds exactly one
// to the counters' sum and no client re-runs a transaction, so the
// recovered sum must be at least the acknowledged count. Three rounds
// kill inside in-progress checkpoints (every crash window widened) and
// one kills a paged node mid-flush; the bound holds cumulatively.
//
// label historical: the node has one engine since sharding left it, so
// the rounds run one log (wal-0) instead of two.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary as child nodes")
	}
	dir := filepath.Join(t.TempDir(), "wal")
	// Seeded extra delays before each kill spread the kills over a whole
	// checkpoint cycle (interval plus four widened phases).
	rng := rand.New(rand.NewSource(1))
	delay := func() time.Duration { return time.Duration(rng.Int63n(int64(250 * time.Millisecond))) }
	verify := func(cfg Config, total int64) (int64, bool) {
		t.Helper()
		s, fromCheckpoint := recoverSum(t, cfg)
		if s < total {
			t.Fatalf("DURABILITY VIOLATION: recovered sum %d < %d acknowledged commits", s, total)
		}
		return s, fromCheckpoint
	}

	total := crashRound(t, dir, "plain", 8, 7, delay())
	plain := crashConfig(dir, "plain", false)
	first, _ := verify(plain, total)
	if again, _ := verify(plain, total); again != first {
		t.Fatalf("clean restart recovered sum %d, want %d", again, first)
	}

	for round := int64(1); round <= 3; round++ {
		total += crashRound(t, dir, "ckpt", 8, 20+round, delay())
		if _, fromCheckpoint := verify(plain, total); !fromCheckpoint {
			t.Fatalf("checkpoint round %d: recovery did not start from a checkpoint", round)
		}
	}
	// Compaction keeps the directory bounded: at most Retain + 1
	// checkpoints (one may have been mid-publication at the kill).
	_, ckpts := newestCheckpoint(t, dir)
	files, _ := os.ReadDir(dir)
	if ckpts > 3 || len(files) > 48 {
		t.Fatalf("log directory unbounded: %d checkpoints, %d files", ckpts, len(files))
	}

	// The heap file is a spill area: a kill landing mid-flush must not
	// matter, recovery rebuilds a fresh paged store.
	total += crashRound(t, dir, "paged", 64, 31, delay())
	verify(crashConfig(dir, "paged", false), total)
	if _, err := os.Stat(filepath.Join(dir, "heap.dat")); err != nil {
		t.Fatalf("<wal>/heap.dat removed: %v", err)
	}
}
