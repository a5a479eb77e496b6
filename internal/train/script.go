package train

import (
	"time"

	"mycroft/internal/ccl"
	"mycroft/internal/pystack"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// await coordinates one rank's arrival at op #idx of a communicator. The
// first rank to arrive submits the op (specs are a deterministic function of
// schedule position, so any rank builds the same one); every rank then
// registers its continuation and releases its hold so the CCL launches its
// part. On rank-local completion the hold is re-acquired and the script
// continues — exactly the "each rank calls the collective when its own work
// is ready" semantics of a real framework.
func (rd *rankDriver) await(seat *commSeat, mkSpec func() ccl.OpSpec, cont func()) {
	if rd.job.stopped {
		return
	}
	cs := seat.commState
	idx := seat.awaited
	seat.awaited++

	if cs.submitted == idx {
		spec := mkSpec()
		p := cs.entry()
		p.skip, p.refs = spec.Skip, 2
		cs.pending = append(cs.pending, p)
		spec.OnRankDone = p.onRankDone
		p.op = cs.comm.Submit(spec, p.onAllDone)
		cs.submitted++
	} else if cs.submitted < idx {
		panic("train: await ordering violated")
	}

	p := cs.pending[idx-cs.base]
	p.arrived++
	if p.skip[rd.rank] {
		// Synchronization bug: this rank silently skips the collective and
		// moves on. Release so the FIFO can pass over the skipped op.
		cs.release()
		cs.comm.Release(rd.rank)
		cs.comm.Hold(rd.rank)
		rd.job.Eng.At(rd.job.Eng.Now(), cont)
		return
	}
	p.waiters[seat.group] = cont
	p.waiting++
	rd.job.PyStack.Set(rd.rank, pystack.FrameCollWait)
	cs.comm.Release(rd.rank)
}

// sleep schedules cont after d unless the rank's data path is stalled.
func (rd *rankDriver) sleep(d time.Duration, stalled *bool, cont func()) {
	if stalled != nil && *stalled {
		return // the frame stays where setFrame left it; the rank hangs
	}
	rd.job.Eng.After(d, cont)
}

// compute runs nominal duration d on the GPU (stretched by the straggler
// factor, jittered when configured) unless the rank's compute is stalled.
func (rd *rankDriver) compute(d time.Duration, cont func()) {
	if rd.computeStalled {
		return
	}
	if jit := rd.job.Cfg.ComputeJitter; jit > 0 {
		f := 1 + jit*(2*rd.job.Eng.Rand().Float64()-1)
		d = time.Duration(float64(d) * f)
	}
	rd.job.GPUs[rd.rank].Compute(d, func() {
		if rd.computeStalled {
			return
		}
		cont()
	})
}

// runIteration drives one full iteration of the rank's script, then loops.
func (rd *rankDriver) runIteration() {
	j := rd.job
	if j.stopped {
		return
	}
	iter := rd.iter
	if _, ok := j.iterStart[iter]; !ok {
		j.iterStart[iter] = j.Eng.Now()
	}
	j.PyStack.Set(rd.rank, pystack.FrameDataloader)
	rd.sleep(j.Cfg.DataloaderDelay, &rd.dataStalled, func() {
		rd.forwardChain(0, func() {
			rd.backwardChain(j.Cluster.PP-1, func() {
				rd.gradientSync(func() {
					rd.maybeCheckpoint(iter, func() {
						now := j.Eng.Now()
						j.iterDone[rd.rank]++
						if j.OnRankIteration != nil {
							j.OnRankIteration(rd.rank, iter, now)
						}
						j.doneRanks[iter]++
						if j.doneRanks[iter] == j.Cluster.WorldSize() {
							j.iterEnd[iter] = now
							if j.OnIteration != nil {
								j.OnIteration(iter, j.iterStart[iter], now)
							}
						}
						rd.iter++
						j.PyStack.Set(rd.rank, pystack.FrameIdle)
						j.Eng.At(now, rd.runIteration)
					})
				})
			})
		})
	})
}

// maybeCheckpoint pauses the rank for the checkpoint write every
// CheckpointEvery iterations. A stalled checkpoint leaves the rank's stack
// in checkpoint.save forever — py-spy's territory.
func (rd *rankDriver) maybeCheckpoint(iter int, cont func()) {
	j := rd.job
	every := j.Cfg.CheckpointEvery
	if every <= 0 || (iter+1)%every != 0 {
		cont()
		return
	}
	j.PyStack.Set(rd.rank, pystack.FrameCheckpoint)
	rd.sleep(j.Cfg.CheckpointDelay, &rd.ckptStalled, cont)
}

// forwardChain walks pipeline positions 0..PP-1: this rank computes (and
// runs its TP all-reduces) at its own stage, and every rank awaits every
// pipeline transfer in canonical order (non-participants finish instantly).
func (rd *rankDriver) forwardChain(k int, cont func()) {
	j := rd.job
	S := j.Cluster.PP
	step := func() {
		if k < S-1 {
			src, dst := k, k+1
			rd.await(&rd.pp, func() ccl.OpSpec {
				return ccl.OpSpec{Kind: trace.OpSendRecv, Bytes: j.Cfg.PPBytes, Src: src, Dst: dst}
			}, func() { rd.forwardChain(k+1, cont) })
		} else {
			cont()
		}
	}
	if k == rd.coord.PP {
		rd.layerLoop(0, j.Cfg.ComputePerLayer, step)
	} else {
		step()
	}
}

// backwardChain walks positions PP-1..0 with backward compute (2× forward).
func (rd *rankDriver) backwardChain(k int, cont func()) {
	j := rd.job
	step := func() {
		if k > 0 {
			src, dst := k, k-1
			rd.await(&rd.pp, func() ccl.OpSpec {
				return ccl.OpSpec{Kind: trace.OpSendRecv, Bytes: j.Cfg.PPBytes, Src: src, Dst: dst}
			}, func() { rd.backwardChain(k-1, cont) })
		} else {
			cont()
		}
	}
	if k == rd.coord.PP {
		rd.layerLoop(0, 2*j.Cfg.ComputePerLayer, step)
	} else {
		step()
	}
}

// layerLoop runs per-layer compute followed by the layer's TP all-reduce.
func (rd *rankDriver) layerLoop(l int, perLayer time.Duration, cont func()) {
	j := rd.job
	if l >= j.Cfg.LayersPerStage {
		cont()
		return
	}
	d := perLayer
	if rd.rank == 0 && l == 0 {
		d += j.Cfg.MasterExtra // the heavier master-rank workload of §9
	}
	j.PyStack.Set(rd.rank, pystack.FrameForward)
	rd.compute(d, func() {
		if j.Cluster.TP > 1 {
			rd.await(&rd.tp, func() ccl.OpSpec {
				return ccl.OpSpec{Kind: trace.OpAllReduce, Bytes: j.Cfg.TPBytesPerLayer}
			}, func() { rd.layerLoop(l+1, perLayer, cont) })
		} else {
			rd.layerLoop(l+1, perLayer, cont)
		}
	})
}

// gradientSync runs the data-parallel gradient all-reduce.
func (rd *rankDriver) gradientSync(cont func()) {
	j := rd.job
	if j.Cluster.DP <= 1 {
		cont()
		return
	}
	rd.await(&rd.dp, func() ccl.OpSpec {
		spec := ccl.OpSpec{Kind: trace.OpAllReduce, Bytes: j.Cfg.DPBytes}
		if skips := j.takePendingDPSkips(rd.dp.commState); len(skips) > 0 {
			spec.Skip = skips
		}
		return spec
	}, cont)
}

// takePendingDPSkips consumes the sync-mismatch fault requests for a DP comm.
func (j *Job) takePendingDPSkips(cs *commState) map[topo.Rank]bool {
	var out map[topo.Rank]bool
	for _, rd := range j.ranks {
		if rd.skipNextDP && rd.dp.commState == cs {
			if out == nil {
				out = make(map[topo.Rank]bool)
			}
			out[rd.rank] = true
			rd.skipNextDP = false
		}
	}
	return out
}
