package main

import (
	"bytes"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"partialrollback/internal/client"
)

// TestSIGINTAfterFirstReply sends SIGINT the instant a fresh server
// answers its first STATS request. The signal handler must already be
// installed by then (it used to be installed after Listen, so such a
// SIGINT killed the process without the shutdown path): every round
// has to end with the clean-shutdown line.
func TestSIGINTAfterFirstReply(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the prserver binary")
	}
	bin := filepath.Join(t.TempDir(), "prserver")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for round := 0; round < 100; round++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()

		var out bytes.Buffer
		cmd := exec.Command(bin, "-addr", addr, "-entities", "8")
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		m := client.NewMux(client.MuxConfig{Addr: addr, RequestTimeout: 5 * time.Second})
		deadline := time.Now().Add(30 * time.Second)
		for {
			if _, err := m.Stats(); err == nil {
				break
			}
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				cmd.Wait()
				t.Fatalf("round %d: server never answered STATS\n%s", round, out.String())
			}
			time.Sleep(time.Millisecond)
		}
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
		m.Close()
		err = cmd.Wait()
		if err != nil || !strings.Contains(out.String(), "store consistent; bye") {
			t.Fatalf("round %d: exit %v, want a clean shutdown\n%s", round, err, out.String())
		}
	}
}
