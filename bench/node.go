package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"partialrollback/internal/client"
	"partialrollback/internal/wire"
)

// node is one prserver subprocess. The harness keeps the *exec.Cmd (and
// so the child's PID) from the moment of spawn; it never looks a server
// up by name.
type node struct {
	cmd   *exec.Cmd
	argv  []string // effective argv, recorded in every result
	addr  string
	admin string // empty unless the node was started traced
	out   *syncBuffer
	done  chan struct{} // closed once Wait has returned
	ctl   *client.Mux   // the harness's own socket: STATS and read-back
	ready time.Time     // when the first STATS reply arrived
}

// syncBuffer collects the child's stdout and stderr.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// children tracks every live subprocess so that any exit path of the
// harness — error return, failed gate, signal — can stop them all.
var children = struct {
	sync.Mutex
	m map[*node]bool
}{m: map[*node]bool{}}

// killChildren force-stops whatever is still running.
func killChildren() {
	children.Lock()
	live := make([]*node, 0, len(children.m))
	for n := range children.m {
		live = append(live, n)
	}
	children.Unlock()
	for _, n := range live {
		n.kill()
	}
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

const (
	readyTimeout = 30 * time.Second
	// stopTimeout is above the server's own 10 s drain budget.
	stopTimeout = 15 * time.Second
	// signalGrace works around a defect in cmd/prserver, which this
	// change may not touch: it starts serving before it installs its
	// SIGINT handler, so a SIGINT within about a millisecond of the first
	// STATS reply kills it without the shutdown path (1 of 300 immediate
	// stops here). stop lets a node reach this age first. Only the
	// restart after kill -9 is ever that young; no metric spans the wait.
	// Delete once prserver calls signal.Notify before Listen.
	signalGrace = 100 * time.Millisecond
)

// startNode spawns bin with args (plus -addr, and -admin when traced)
// and returns once the node answers a STATS request. The elapsed time
// from spawn to that reply is the node's start-up time.
func startNode(bin string, args []string, traced bool) (*node, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	argv := append([]string{"-addr", addr}, args...)
	n := &node{addr: addr, out: &syncBuffer{}, done: make(chan struct{}),
		ctl: client.NewMux(client.MuxConfig{Addr: addr, RequestTimeout: 10 * time.Second})}
	if traced {
		if n.admin, err = freeAddr(); err != nil {
			return nil, 0, err
		}
		argv = append(argv, "-admin", n.admin)
	}
	n.argv = append([]string{"prserver"}, argv...)
	n.cmd = exec.Command(bin, argv...)
	n.cmd.Stdout = n.out
	n.cmd.Stderr = n.out
	start := time.Now()
	if err := n.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("spawn prserver: %w", err)
	}
	children.Lock()
	children.m[n] = true
	children.Unlock()
	go func() {
		_ = n.cmd.Wait() // exit status is judged from the log in stop
		children.Lock()
		delete(children.m, n)
		children.Unlock()
		close(n.done)
	}()

	for {
		if _, err := n.ctl.Stats(); err == nil {
			n.ready = time.Now()
			return n, n.ready.Sub(start), nil
		}
		select {
		case <-n.done:
			return nil, 0, fmt.Errorf("prserver exited during start-up:\n%s", n.out.String())
		case <-time.After(2 * time.Millisecond): // poll interval, not a readiness guess
		}
		if time.Since(start) > readyTimeout {
			n.kill()
			return nil, 0, fmt.Errorf("prserver not ready after %v:\n%s", readyTimeout, n.out.String())
		}
	}
}

// stats returns the node's STATS snapshot as a map.
func (n *node) stats() (map[string]int64, error) {
	cs, err := n.ctl.Stats()
	if err != nil {
		return nil, fmt.Errorf("STATS: %w", err)
	}
	return counterMap(cs), nil
}

func counterMap(cs []wire.Counter) map[string]int64 {
	m := make(map[string]int64, len(cs))
	for _, c := range cs {
		m[c.Name] = c.Val
	}
	return m
}

// stop shuts the node down gracefully: SIGINT, wait, SIGKILL after
// stopTimeout. It returns the node's log and an error unless the node
// ended with its own consistency check passing.
func (n *node) stop() (string, error) {
	n.ctl.Close()
	time.Sleep(time.Until(n.ready.Add(signalGrace)))
	_ = n.cmd.Process.Signal(os.Interrupt)
	select {
	case <-n.done:
	case <-time.After(stopTimeout):
		n.kill()
		return n.out.String(), errors.New("prserver ignored SIGINT; killed")
	}
	log := n.out.String()
	if !strings.Contains(log, "store consistent; bye") {
		return log, errors.New("prserver exited without \"store consistent; bye\"")
	}
	return log, nil
}

// kill is kill -9 plus reaping: the crash of the durable workload and
// the last resort of every failure path.
func (n *node) kill() {
	n.ctl.Close()
	_ = n.cmd.Process.Kill()
	<-n.done
}

// procCPU returns utime+stime of process pid from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// its closing parenthesis.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc/%d/stat", pid)
	}
	const clkTck = 100 // USER_HZ, fixed on Linux
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

func (n *node) cpu() (time.Duration, error) { return procCPU(n.cmd.Process.Pid) }

// rssPeakMB reads VmHWM, the process's peak resident set.
func (n *node) rssPeakMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// selfCPU is the load generator's own CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
