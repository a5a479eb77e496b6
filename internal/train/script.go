package train

// The rank script is a state machine on rankDriver: rd.step is where the rank
// resumes, beside the pipeline position k, the layer l and the pass (forward
// or backward). run executes steps until the rank waits, then returns. It
// waits on a collective (await parks rd as the op's waiter and the
// communicator's rank-done callback calls rd.run; a rank that skips the op is
// rescheduled at once), on GPU compute (the GPU fires rd) or on the
// dataloader or checkpoint sleep (the engine fires rd). The sleeps test their
// stall flag before sleeping, so a stall holds from the next fetch or
// checkpoint; compute tests its flag on resume too, because a compute already
// on the GPU cannot be called back and a stall injected mid-layer must freeze
// the rank at that layer. Every wait schedules at most one event and the rest
// runs synchronously inside run; TestScriptScheduleGolden pins the schedule.

import (
	"time"

	"mycroft/internal/ccl"
	"mycroft/internal/pystack"
	"mycroft/internal/trace"
)

// step is where a rank's script resumes.
type step uint8

const (
	stepFetch      step = iota // start an iteration: the dataloader fetch
	stepLayer                  // layer l at pipeline position k (none off the rank's stage)
	stepComputed               // layer l's compute is done: its TP all-reduce
	stepTransfer               // leave position k: the pipeline transfer, or the gradient sync
	stepCheckpoint             // the checkpoint write every CheckpointEvery iterations
	stepFinish                 // book the iteration and start the next
)

// Fire implements sim.Handler: a sleep, a GPU compute or a skipped
// collective is over, or the job started.
func (rd *rankDriver) Fire(int32) { rd.run() }

// run advances the rank's script from rd.step until it waits.
func (rd *rankDriver) run() {
	j := rd.job
	for {
		switch rd.step {
		case stepFetch:
			if j.stopped {
				return
			}
			if _, ok := j.iterStart[rd.iter]; !ok {
				j.iterStart[rd.iter] = j.Eng.Now()
			}
			j.PyStack.Set(rd.rank, pystack.FrameDataloader)
			rd.step, rd.k, rd.l, rd.backward = stepLayer, 0, 0, false
			if !rd.dataStalled { // else the rank hangs in the dataloader
				j.Eng.ScheduleAfter(j.Cfg.DataloaderDelay, rd, 0)
			}
			return

		case stepLayer:
			if rd.k != rd.coord.PP || rd.l >= j.Cfg.LayersPerStage {
				rd.step = stepTransfer
				continue
			}
			d := j.Cfg.ComputePerLayer
			if rd.backward {
				d *= 2
			}
			if rd.rank == 0 && rd.l == 0 {
				d += j.Cfg.MasterExtra // the heavier master-rank workload of §9
			}
			j.PyStack.Set(rd.rank, pystack.FrameForward)
			rd.step = stepComputed
			if rd.computeStalled {
				return
			}
			if jit := j.Cfg.ComputeJitter; jit > 0 {
				d = time.Duration(float64(d) * (1 + jit*(2*j.Eng.Rand().Float64()-1)))
			}
			j.GPUs[rd.rank].Compute(d, rd, 0) // stretched by the straggler factor
			return

		case stepComputed:
			if rd.computeStalled {
				return
			}
			rd.step = stepLayer
			rd.l++
			if j.Cluster.TP > 1 {
				rd.await(&rd.tp, ccl.OpSpec{Kind: trace.OpAllReduce, Bytes: j.Cfg.TPBytesPerLayer})
				return
			}

		case stepTransfer:
			// Every rank awaits every pipeline transfer in canonical order
			// (non-participants finish instantly): forward 0..PP-1, then
			// backward PP-1..0, then the gradient all-reduce.
			next := rd.k + 1
			if rd.backward {
				next = rd.k - 1
			}
			if next >= 0 && next < j.Cluster.PP {
				src := rd.k
				rd.step, rd.k, rd.l = stepLayer, next, 0
				rd.await(&rd.pp, ccl.OpSpec{Kind: trace.OpSendRecv, Bytes: j.Cfg.PPBytes, Src: src, Dst: next})
				return
			}
			if !rd.backward {
				rd.step, rd.l, rd.backward = stepLayer, 0, true
				continue
			}
			rd.step = stepCheckpoint
			if j.Cluster.DP > 1 {
				rd.await(&rd.dp, ccl.OpSpec{Kind: trace.OpAllReduce, Bytes: j.Cfg.DPBytes})
				return
			}

		case stepCheckpoint:
			rd.step = stepFinish
			if every := j.Cfg.CheckpointEvery; every > 0 && (rd.iter+1)%every == 0 {
				// A stalled checkpoint leaves the rank's stack in
				// checkpoint.save forever — py-spy's territory.
				j.PyStack.Set(rd.rank, pystack.FrameCheckpoint)
				if !rd.ckptStalled {
					j.Eng.ScheduleAfter(checkpointDelay, rd, 0)
				}
				return
			}

		case stepFinish:
			now := j.Eng.Now()
			j.iterDone[rd.rank]++
			if j.OnRankIteration != nil {
				j.OnRankIteration(rd.rank, rd.iter, now)
			}
			j.doneRanks[rd.iter]++
			if j.doneRanks[rd.iter] == j.Cluster.WorldSize() {
				// Every rank is past it, so nothing counts it again.
				delete(j.doneRanks, rd.iter)
				j.iterEnd[rd.iter] = now
				if j.OnIteration != nil {
					j.OnIteration(rd.iter, j.iterStart[rd.iter], now)
				}
			}
			rd.iter++
			j.PyStack.Set(rd.rank, pystack.FrameIdle)
			rd.step = stepFetch
			j.Eng.Schedule(now, rd, 0)
			return
		}
	}
}

// await coordinates one rank's arrival at the next op of a communicator. The
// first rank to arrive submits the op (specs are a deterministic function of
// schedule position, so any rank builds the same one); every rank then
// registers as the op's waiter and releases its hold so the CCL launches its
// part. On rank-local completion the hold is re-acquired and the script
// resumes — exactly the "each rank calls the collective when its own work is
// ready" semantics of a real framework. The caller has already set the step
// to resume at, and returns right after: the rank may resume before await
// does.
func (rd *rankDriver) await(seat *commSeat, spec ccl.OpSpec) {
	if rd.job.stopped {
		return
	}
	cs := seat.commState
	idx := seat.awaited
	seat.awaited++

	if cs.submitted == idx {
		spec.Skip, cs.skipNext = cs.skipNext, nil
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
		rd.job.Eng.Schedule(rd.job.Eng.Now(), rd, 0)
		return
	}
	p.waiters[seat.group] = rd
	p.waiting++
	rd.job.PyStack.Set(rd.rank, pystack.FrameCollWait)
	cs.comm.Release(rd.rank)
}
