package experiments

import (
	"fmt"
	"time"

	"mycroft"
	"mycroft/internal/faults"
	"mycroft/internal/topo"
)

// E9Result reproduces the integration scenarios: which subsystem resolves
// each failure mode.
type E9Result struct {
	Rows [][]string
}

// RunE9 executes the three §6.2 triage scenarios.
func RunE9(seed int64) E9Result {
	var res E9Result
	cases := []struct {
		name       string
		kind       faults.Kind
		rank       topo.Rank
		wantSource string
	}{
		{"dataloader stall", faults.DataloaderStall, 2, "py-spy"},
		{"sync mismatch (skipped collective)", faults.SyncMismatch, 3, "flight-recorder"},
		{"NIC failure (CCL-internal)", faults.NICDown, 5, "mycroft"},
	}
	for i, cs := range cases {
		warm := 15 * time.Second
		h, _ := host(seed+int64(i), mycroft.JobOptions{Topo: topo.Small()},
			faults.Spec{Kind: cs.kind, Rank: cs.rank, At: warm}, warm+40*time.Second)
		source, rank, _, ok := h.Triage()
		if !ok {
			source = "-"
		}
		res.Rows = append(res.Rows, []string{
			cs.name, source, fmt.Sprintf("%d", rank),
			yn(source == cs.wantSource && rank == cs.rank),
		})
	}
	return res
}

// Table renders the triage outcomes.
func (r E9Result) Table() string {
	return "integration triage (Fig. 6) — which reliability system names the root cause\n" +
		Table([]string{"scenario", "resolved-by", "rank", "correct"}, r.Rows)
}
