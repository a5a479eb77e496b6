package experiments

import (
	"fmt"
	"time"

	"mycroft/internal/baseline"
	"mycroft/internal/sim"
	"mycroft/internal/train"
)

// E4Result reproduces the overhead comparison: training iteration time and
// DP bus bandwidth under each tracing design (§2.3/§7.2: NPKit-style
// kernel tracing costs ~2/3 of bus bandwidth; Mycroft is ~free).
type E4Result struct {
	Rows       [][]string
	BusBW      map[baseline.Kind]float64
	IterTime   map[baseline.Kind]time.Duration
	TraceBytes map[baseline.Kind]uint64
}

// RunE4 measures a comm-heavy job under every design.
func RunE4(seed int64) E4Result {
	res := E4Result{
		BusBW:      make(map[baseline.Kind]float64),
		IterTime:   make(map[baseline.Kind]time.Duration),
		TraceBytes: make(map[baseline.Kind]uint64),
	}
	designs := []baseline.Kind{baseline.None, baseline.Coll, baseline.OpLevel, baseline.RDMALevel, baseline.KernelLevel}
	var baseBW float64
	var baseIter time.Duration
	for _, d := range designs {
		bw, iter, bytes := runOverheadJob(seed, d, 60*time.Second)
		res.BusBW[d] = bw
		res.IterTime[d] = iter
		res.TraceBytes[d] = bytes
		if d == baseline.None {
			baseBW, baseIter = bw, iter
		}
		bwLoss := "-"
		slowdown := "-"
		if d != baseline.None && baseBW > 0 {
			bwLoss = fmt.Sprintf("%.0f%%", 100*(1-bw/baseBW))
			slowdown = fmt.Sprintf("%.1f%%", 100*(float64(iter)/float64(baseIter)-1))
		}
		res.Rows = append(res.Rows, []string{
			string(d), gbps(bw), bwLoss, iter.Round(time.Millisecond).String(), slowdown,
		})
	}
	return res
}

func runOverheadJob(seed int64, d baseline.Kind, dur time.Duration) (busBW float64, iter time.Duration, traceBytes uint64) {
	eng := sim.NewEngine(seed)
	cfg := train.JobConfig(Testbed(), train.CommHeavy)
	var tracer *baseline.Tracer
	switch d {
	case baseline.Coll:
		// Mycroft's tracepoints are asynchronous shared-memory writes; their
		// real CPU cost is bench's trace.emit_ns and trace.drain_ns_per_record
		// rows, and is off the simulated critical path.
	case baseline.None:
		cfg.DisableTracing = true
	default:
		cfg.DisableTracing = true
		tracer = baseline.New(d, eng.Now)
		tracer.Wire(&cfg.CCL)
	}
	job := train.MustNew(eng, cfg)
	job.Start()
	eng.RunFor(dur)
	bw, _ := job.DPBusBandwidth()
	it, _ := job.MeanIterationTime(job.IterationsDone())
	var bytes uint64
	if tracer != nil {
		bytes = tracer.BytesTraced()
	} else if d == baseline.Coll {
		bytes = job.DB.BytesIngested()
	}
	job.Stop()
	return bw, it, bytes
}

// Table renders the overhead comparison.
func (r E4Result) Table() string {
	return "overhead comparison — comm-heavy job on the 32-GPU testbed\n" +
		Table([]string{"tracer", "dp-bus-bw", "bw-loss", "iteration", "slowdown"}, r.Rows)
}

// E6Result reproduces the data-volume accounting of §6.1: trace bytes per
// GPU per second under Mycroft vs. kernel-level tracing, extrapolated to a
// 10,000-GPU job per day (paper: ~3 TB/day for Mycroft's design point).
type E6Result struct {
	Rows           [][]string
	MycroftPerGPU  float64 // bytes/GPU/s
	KernelPerGPU   float64
	Mycroft10kTBpd float64
}

// RunE6 measures steady-state trace volume.
func RunE6(seed int64) E6Result {
	var res E6Result
	horizon := 60 * time.Second

	eng := sim.NewEngine(seed)
	cfg := train.JobConfig(Testbed(), train.CommHeavy)
	job := train.MustNew(eng, cfg)
	job.Start()
	eng.RunFor(horizon)
	world := float64(job.Cluster.WorldSize())
	res.MycroftPerGPU = float64(job.DB.BytesIngested()) / world / horizon.Seconds()
	job.Stop()

	eng2 := sim.NewEngine(seed)
	cfg2 := train.JobConfig(Testbed(), train.CommHeavy)
	cfg2.DisableTracing = true
	kt := baseline.New(baseline.KernelLevel, eng2.Now)
	kt.SetOverhead(0) // measure volume at equal speed, cost shown in E4
	kt.Wire(&cfg2.CCL)
	job2 := train.MustNew(eng2, cfg2)
	job2.Start()
	eng2.RunFor(horizon)
	res.KernelPerGPU = float64(kt.BytesTraced()) / world / horizon.Seconds()
	job2.Stop()

	toTBDay := func(perGPU float64) float64 { return perGPU * 10000 * 86400 / 1e12 }
	res.Mycroft10kTBpd = toTBDay(res.MycroftPerGPU)
	res.Rows = [][]string{
		{"mycroft (coll-level)", fmt.Sprintf("%.1f KB/s", res.MycroftPerGPU/1e3), fmt.Sprintf("%.2f TB/day", toTBDay(res.MycroftPerGPU))},
		{"kernel-level", fmt.Sprintf("%.1f KB/s", res.KernelPerGPU/1e3), fmt.Sprintf("%.2f TB/day", toTBDay(res.KernelPerGPU))},
	}
	return res
}

// Table renders the volume comparison.
func (r E6Result) Table() string {
	return "trace data volume — per GPU and extrapolated to a 10k-GPU job\n" +
		Table([]string{"tracer", "per-GPU rate", "10k-GPU volume"}, r.Rows)
}
