package experiments

import (
	"fmt"
	"time"

	"mycroft/internal/faults"
	"mycroft/internal/stats"
	"mycroft/internal/topo"
)

// E2Result reproduces the §7.1 fault-injection table: per fault class,
// detection and localization outcomes across trials.
type E2Result struct {
	Rows  [][]string
	Cases []CaseResult
}

// RunE2 injects each of the seven core fault classes at several ranks and
// scores Mycroft's verdicts.
func RunE2(trials int) E2Result {
	var res E2Result
	world := topo.Small().Nodes * topo.Small().GPUsPerNode
	for _, kind := range faults.CoreSeven() {
		var detected, suspectOK, categoryOK int
		var dLat, rLat stats.Sample
		for tr := 0; tr < trials; tr++ {
			rank := topo.Rank((3 + 2*tr) % world)
			c := RunCase(int64(100+tr), topo.Small(), faults.Spec{Kind: kind, Rank: rank}, 15*time.Second, 60*time.Second)
			res.Cases = append(res.Cases, c)
			if c.Trigger != nil {
				detected++
				dLat.Add(c.TriggerAfter.Seconds())
			}
			if c.Report != nil {
				rLat.Add(c.ReportAfter.Seconds())
				if c.Suspect == faults.SuspectExact {
					suspectOK++
				}
				if c.RightCategory {
					categoryOK++
				}
			}
		}
		res.Rows = append(res.Rows, []string{
			string(kind),
			fmt.Sprintf("%d/%d", detected, trials),
			fmt.Sprintf("%.1fs", dLat.Quantile(0.5)),
			fmt.Sprintf("%d/%d", suspectOK, trials),
			fmt.Sprintf("%d/%d", categoryOK, trials),
			fmt.Sprintf("%.1fs", rLat.Quantile(0.5)),
		})
	}
	return res
}

// Table renders the injection results.
func (r E2Result) Table() string {
	return "§7.1 fault injection — detection and localization per fault class\n" +
		Table([]string{"fault", "detected", "median-detect", "rank-correct", "category-correct", "median-rca"}, r.Rows)
}

// E3Result reproduces the production-scale claim: CDFs of detection and RCA
// latency across a randomized campaign ("15 s detection in 90% of cases,
// root cause within 20 s in 60%").
type E3Result struct {
	Detect stats.Sample
	RCA    stats.Sample
	Runs   int
	Misses int
}

// RunE3 runs a randomized campaign of runs fault injections across all core
// classes and ranks.
func RunE3(runs int) E3Result {
	var res E3Result
	kinds := faults.CoreSeven()
	world := topo.Small().Nodes * topo.Small().GPUsPerNode
	for i := 0; i < runs; i++ {
		kind := kinds[i%len(kinds)]
		rank := topo.Rank((1 + 3*i) % world)
		c := RunCase(int64(1000+i), topo.Small(), faults.Spec{Kind: kind, Rank: rank}, 15*time.Second, 90*time.Second)
		res.Runs++
		if c.Trigger == nil {
			res.Misses++
			continue
		}
		res.Detect.Add(c.TriggerAfter.Seconds())
		if c.Report != nil {
			res.RCA.Add(c.ReportAfter.Seconds())
		}
	}
	return res
}

// Table renders the CDF summary.
func (r E3Result) Table() string {
	rows := [][]string{
		{"detection", fmt.Sprintf("%.1fs", r.Detect.Quantile(0.5)), fmt.Sprintf("%.1fs", r.Detect.Quantile(0.9)),
			fmt.Sprintf("%.0f%%", 100*r.Detect.FractionBelow(15)), fmt.Sprintf("%.0f%%", 100*r.Detect.FractionBelow(20))},
		{"root cause", fmt.Sprintf("%.1fs", r.RCA.Quantile(0.5)), fmt.Sprintf("%.1fs", r.RCA.Quantile(0.9)),
			fmt.Sprintf("%.0f%%", 100*r.RCA.FractionBelow(15)), fmt.Sprintf("%.0f%%", 100*r.RCA.FractionBelow(20))},
	}
	s := fmt.Sprintf("production-style campaign — %d runs, %d undetected\n", r.Runs, r.Misses)
	s += Table([]string{"latency", "P50", "P90", "<15s", "<20s"}, rows)
	s += "\ndetection CDF:\n"
	for _, p := range r.Detect.CDF(10) {
		s += fmt.Sprintf("  P%02.0f  %6.2fs\n", p.P*100, p.X)
	}
	return s
}
