package seedjob

import (
	"strings"
	"testing"
	"time"
)

// TestAssembleRejectsBadFaultFlags: a typo'd kind and an out-of-world rank
// are refused while the job is assembled. Before, the first panicked inside
// the engine at the injection instant and the second while scheduling it —
// fatal to a daemon mid-drive.
func TestAssembleRejectsBadFaultFlags(t *testing.T) {
	cases := []struct {
		fault string
		rank  int
		want  string
	}{
		{"gpu-hung", 5, `unknown fault kind "gpu-hung"`},
		{"nic-down", 99, "fault rank 99 outside the job's 8 ranks"},
		{"nic-down", -1, "fault rank -1"},
	}
	for _, c := range cases {
		svc, start, err := Assemble("trace", 1, c.fault, c.rank, 15*time.Second, false)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("-fault %s -rank %d: err %v, want %q", c.fault, c.rank, err, c.want)
		}
		if svc != nil || start != nil {
			t.Errorf("-fault %s -rank %d: returned a service alongside the error", c.fault, c.rank)
		}
	}
	if !strings.Contains(FaultKinds(), "none|nic-down|") || !strings.Contains(FaultKinds(), "checkpoint-stall") {
		t.Errorf("FaultKinds() = %q", FaultKinds())
	}
	// "none" ignores the rank; a known kind on an in-world rank runs.
	for _, c := range []struct {
		fault string
		rank  int
	}{{"none", 99}, {"gpu-hang", 7}} {
		svc, err := Build("trace", 1, c.fault, c.rank, 15*time.Second, false)
		if err != nil {
			t.Fatalf("-fault %s -rank %d: %v", c.fault, c.rank, err)
		}
		svc.Run(20 * time.Second)
	}
}
