package main

import (
	"os/exec"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// linked is every internal package the node links. A new import into
// the node must change this list in the same commit, as a reviewed
// diff.
var linked = []string{
	"checkpoint",
	"core",
	"durable",
	"entity",
	"exec",
	"hybrid",
	"intern",
	"lock",
	"mcs",
	"node",
	"obs",
	"page",
	"sdg",
	"server",
	"txn",
	"value",
	"waitfor",
	"wal",
	"wire",
}

// reproductionOnly lists packages that exist for the paper's
// reproduction, its test oracles and its simulators; the node must
// never link them. deadlock is among them: the node's ordered
// acquisition admits no wait-for cycle, so its engine runs without a
// core.Resolver.
var reproductionOnly = []string{
	"avoidance", "deadlock", "dist", "experiments", "figures", "graph",
	"history", "optimizer", "render", "runtime", "sim", "trace",
}

// TestLinkSet pins the internal packages prserver links
// (go list -deps).
func TestLinkSet(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	const prefix = "partialrollback/internal/"
	var got []string
	for _, p := range strings.Fields(string(out)) {
		if name, ok := strings.CutPrefix(p, prefix); ok {
			got = append(got, name)
		}
	}
	sort.Strings(got)
	for _, bad := range reproductionOnly {
		for _, p := range got {
			if p == bad || strings.HasPrefix(p, bad+"/") {
				t.Errorf("prserver links reproduction-only package %s", p)
			}
		}
	}
	if !reflect.DeepEqual(got, linked) {
		t.Errorf("prserver links\n  %v\nwant\n  %v", got, linked)
	}
}
