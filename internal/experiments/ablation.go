package experiments

import (
	"fmt"
	"time"

	"mycroft"
	"mycroft/internal/ccl"
	"mycroft/internal/faults"
	"mycroft/internal/gpusim"
	"mycroft/internal/rdma"
	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/train"
)

// AblationResult holds one sweep's table.
type AblationResult struct {
	Title string
	Head  []string
	Rows  [][]string
}

// Table renders the sweep.
func (r AblationResult) Table() string { return r.Title + "\n" + Table(r.Head, r.Rows) }

// RunAblationUploadLatency sweeps the trace pipeline's upload latency against
// end-to-end detection latency. Finding: detection is governed by the
// Δ-window drain plus the trigger period and is INSENSITIVE to upload
// latency while the latency stays below the window — the window query is
// over emission timestamps, so late-arriving records only matter at the
// window's trailing edge. Pipeline lag approaching the Δ window breaks the
// naive windowed query (fresh records are not yet visible), so Δ must be
// provisioned above the worst-case ingest lag — the reason the production
// system invests in its Kafka/cache layer.
func RunAblationUploadLatency(seed int64) AblationResult {
	res := AblationResult{
		Title: "ablation — trace upload latency vs. detection latency (NIC-down, Δ = 5 s)",
		Head:  []string{"upload-latency", "detection", "rca"},
	}
	for _, lat := range []time.Duration{100 * time.Millisecond, 500 * time.Millisecond, 2 * time.Second, 3 * time.Second} {
		cfg := train.JobConfig(topo.Small(), train.ComputeHeavy)
		cfg.Collector.UploadLatency = lat
		warm := 15 * time.Second
		_, v := host(seed, mycroft.JobOptions{Train: &cfg}, faults.Spec{Kind: faults.NICDown, Rank: 5, At: warm}, warm+40*time.Second)
		detect, rca := "-", "-"
		if v.Trigger != nil {
			detect = v.TriggerAfter.Round(100 * time.Millisecond).String()
		}
		if v.Report != nil {
			rca = v.ReportAfter.Round(100 * time.Millisecond).String()
		}
		res.Rows = append(res.Rows, []string{lat.String(), detect, rca})
	}
	return res
}

// RunAblationStatePeriod sweeps the real-time state log period against trace
// volume: the 100 ms default buys flow-level resolution at ~2 KB/s/GPU; a
// 1 s period cuts volume ~10× but coarsens stuck-time resolution.
func RunAblationStatePeriod(seed int64) AblationResult {
	res := AblationResult{
		Title: "ablation — state-log period vs. trace volume (healthy comm-heavy job, 60 s)",
		Head:  []string{"period", "per-GPU rate", "records"},
	}
	for _, period := range []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 500 * time.Millisecond, time.Second} {
		eng := sim.NewEngine(seed)
		cfg := train.JobConfig(topo.Small(), train.CommHeavy)
		cfg.CCL.StateLogPeriod = period
		job := train.MustNew(eng, cfg)
		job.Start()
		horizon := 60 * time.Second
		eng.RunFor(horizon)
		world := float64(job.Cluster.WorldSize())
		rate := float64(job.DB.BytesIngested()) / world / horizon.Seconds()
		res.Rows = append(res.Rows, []string{
			period.String(), fmt.Sprintf("%.2f KB/s", rate/1e3), fmt.Sprintf("%d", job.DB.Ingested()),
		})
		job.Stop()
	}
	return res
}

// RunAblationChannels sweeps the channel count on a fixed all-reduce: more
// flows raise achievable bandwidth (more NICs engaged per node) and multiply
// state-log volume, the §3.2 trade-off.
func RunAblationChannels(seed int64) AblationResult {
	res := AblationResult{
		Title: "ablation — channels vs. all-reduce completion (8 ranks, 2 nodes, 256 MiB)",
		Head:  []string{"channels", "completion", "algo-bw"},
	}
	for _, ch := range []int{1, 2, 4, 8} {
		eng := sim.NewEngine(seed)
		infos := make([]ccl.RankInfo, 8)
		for r := 0; r < 8; r++ {
			infos[r] = ccl.RankInfo{
				Rank: topo.Rank(r), IP: "10.0.0.1", Node: topo.NodeID(r / 4),
				GPU: gpusim.New(eng, gpusim.ID(r), gpusim.DefaultGPU()),
				NIC: rdma.NewNIC(eng, rdma.NICID(r), "n", rdma.DefaultNIC()),
			}
		}
		comm := ccl.NewCommunicator(eng, 1, infos, ccl.Config{Channels: ch})
		var done sim.Time
		comm.AllReduce(256<<20, func(ts sim.Time) { done = ts })
		eng.RunFor(30 * time.Second)
		comm.Close()
		bw := "-"
		if done > 0 {
			bw = gbps(float64(256<<20) / done.Seconds())
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", ch), time.Duration(done).Round(100 * time.Microsecond).String(), bw,
		})
	}
	return res
}

// RunAblationChunkSize sweeps the pipeline chunk size: small chunks give
// finer counter resolution and smoother pipelining but more per-WR overhead;
// large chunks amortize overhead but coarsen observability.
func RunAblationChunkSize(seed int64) AblationResult {
	res := AblationResult{
		Title: "ablation — chunk size vs. all-reduce completion (4 ranks, cross-node, 256 MiB)",
		Head:  []string{"chunk", "completion", "chunk-events/rank"},
	}
	for _, chunk := range []int64{1 << 20, 4 << 20, 16 << 20} {
		eng := sim.NewEngine(seed)
		infos := make([]ccl.RankInfo, 4)
		for r := 0; r < 4; r++ {
			infos[r] = ccl.RankInfo{
				Rank: topo.Rank(r), IP: "10.0.0.1", Node: topo.NodeID(r),
				GPU: gpusim.New(eng, gpusim.ID(r), gpusim.DefaultGPU()),
				NIC: rdma.NewNIC(eng, rdma.NICID(r), "n", rdma.DefaultNIC()),
			}
		}
		events := 0
		comm := ccl.NewCommunicator(eng, 1, infos, ccl.Config{
			Channels: 1, ChunkBytes: chunk,
			OnChunkEvent: func(r topo.Rank, st ccl.ChunkStage, _ int64) {
				if r == 0 && st == ccl.StageGPUReady {
					events++
				}
			},
		})
		var done sim.Time
		comm.AllReduce(256<<20, func(ts sim.Time) { done = ts })
		eng.RunFor(30 * time.Second)
		comm.Close()
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d MiB", chunk>>20),
			time.Duration(done).Round(100 * time.Microsecond).String(),
			fmt.Sprintf("%d", events),
		})
	}
	return res
}
