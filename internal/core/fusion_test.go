package core

import (
	"testing"
	"time"

	"mycroft/internal/sim"
)

func fat(d time.Duration) sim.Time { return sim.Time(d) }

func TestFusionSingleChannel(t *testing.T) {
	f := NewFusion(FusionConfig{})
	rep := Report{Suspect: 5, Category: CatNetworkSendPath, AnalyzedAt: fat(20 * time.Second)}
	own := Evidence{Channel: ModalityTracepoint, Rank: 5, Category: CatNetworkSendPath, At: rep.AnalyzedAt}
	if out := f.Finalize(&rep, own, rep.AnalyzedAt); out != FusionSingle {
		t.Fatalf("outcome = %s, want %s", out, FusionSingle)
	}
	if len(rep.Evidence) != 1 || rep.Evidence[0].Channel != ModalityTracepoint {
		t.Fatalf("evidence = %v, want one tracepoint entry", rep.Evidence)
	}
	if rep.Confidence != ChannelWeight(ModalityTracepoint) {
		t.Fatalf("confidence = %v, want channel prior %v", rep.Confidence, ChannelWeight(ModalityTracepoint))
	}
}

func TestFusionCorroborationLiftsConfidence(t *testing.T) {
	f := NewFusion(FusionConfig{})
	// The log channel saw rank 5 first; the tracepoint verdict lands later.
	f.Observe(Evidence{Channel: ModalityLog, Rank: 5, Category: CatNetworkSendPath, At: fat(18 * time.Second)})
	rep := Report{Suspect: 5, Category: CatNetworkSendPath, AnalyzedAt: fat(20 * time.Second)}
	own := Evidence{Channel: ModalityTracepoint, Rank: 5, Category: CatNetworkSendPath, At: rep.AnalyzedAt}
	if out := f.Finalize(&rep, own, rep.AnalyzedAt); out != FusionCorroborated {
		t.Fatalf("outcome = %s, want %s", out, FusionCorroborated)
	}
	tp, lg := ChannelWeight(ModalityTracepoint), ChannelWeight(ModalityLog)
	// Noisy-OR: strictly above either single channel's prior.
	if rep.Confidence <= tp || rep.Confidence <= lg {
		t.Fatalf("confidence %v not above single-channel priors (%v, %v)", rep.Confidence, tp, lg)
	}
	want := 1 - (1-tp)*(1-lg)
	if diff := rep.Confidence - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("confidence = %v, want noisy-OR %v", rep.Confidence, want)
	}
	if !rep.HasEvidence(ModalityTracepoint) || !rep.HasEvidence(ModalityLog) {
		t.Fatalf("evidence missing a channel: %v", rep.Evidence)
	}
	if rep.FusionOutcome() != FusionCorroborated {
		t.Fatalf("FusionOutcome = %s, want %s", rep.FusionOutcome(), FusionCorroborated)
	}
}

func TestFusionConflictPenalizesAndFlags(t *testing.T) {
	f := NewFusion(FusionConfig{})
	f.Observe(Evidence{Channel: ModalityPerf, Rank: 2, Category: CatComputeStraggler, At: fat(19 * time.Second)})
	rep := Report{Suspect: 5, Category: CatNetworkSendPath, AnalyzedAt: fat(20 * time.Second)}
	own := Evidence{Channel: ModalityTracepoint, Rank: 5, Category: CatNetworkSendPath, At: rep.AnalyzedAt}
	if out := f.Finalize(&rep, own, rep.AnalyzedAt); out != FusionConflicted {
		t.Fatalf("outcome = %s, want %s", out, FusionConflicted)
	}
	if tp := ChannelWeight(ModalityTracepoint); rep.Confidence >= tp {
		t.Fatalf("confidence %v not penalized below prior %v", rep.Confidence, tp)
	}
	var flagged *Evidence
	for i := range rep.Evidence {
		if rep.Evidence[i].Conflict {
			flagged = &rep.Evidence[i]
		}
	}
	if flagged == nil || flagged.Channel != ModalityPerf || flagged.Rank != 2 {
		t.Fatalf("dissenting evidence not attached+flagged: %v", rep.Evidence)
	}
	if rep.FusionOutcome() != FusionConflicted {
		t.Fatalf("FusionOutcome = %s, want %s", rep.FusionOutcome(), FusionConflicted)
	}
}

func TestFusionWindowExpiry(t *testing.T) {
	f := NewFusion(FusionConfig{})
	f.Observe(Evidence{Channel: ModalityLog, Rank: 5, Category: CatNetworkSendPath, At: fat(10 * time.Second)})
	rep := Report{Suspect: 5, Category: CatNetworkSendPath, AnalyzedAt: fat(2 * time.Minute)}
	own := Evidence{Channel: ModalityTracepoint, Rank: 5, Category: CatNetworkSendPath, At: rep.AnalyzedAt}
	if out := f.Finalize(&rep, own, rep.AnalyzedAt); out != FusionSingle {
		t.Fatalf("stale evidence still fused: outcome %s, evidence %v", out, rep.Evidence)
	}
}

func TestFusionSupersedesPerChannelRank(t *testing.T) {
	f := NewFusion(FusionConfig{})
	f.Observe(Evidence{Channel: ModalityLog, Rank: 5, Category: CatNetworkSendPath, At: fat(10 * time.Second), Score: 0.3})
	f.Observe(Evidence{Channel: ModalityLog, Rank: 5, Category: CatNetworkSendPath, At: fat(15 * time.Second), Score: 0.9})
	rep := Report{Suspect: 5, Category: CatNetworkSendPath, AnalyzedAt: fat(16 * time.Second)}
	own := Evidence{Channel: ModalityTracepoint, Rank: 5, Category: CatNetworkSendPath, At: rep.AnalyzedAt}
	f.Finalize(&rep, own, rep.AnalyzedAt)
	logs := 0
	for _, e := range rep.Evidence {
		if e.Channel == ModalityLog {
			logs++
			if e.Score != 0.9 {
				t.Fatalf("stale log evidence won: %v", e)
			}
		}
	}
	if logs != 1 {
		t.Fatalf("%d log evidence entries, want the freshest only", logs)
	}
}

func TestCompatibleCategory(t *testing.T) {
	cases := []struct {
		a, b Category
		want bool
	}{
		{CatNetworkSendPath, CatNetworkSendPath, true},
		{CatNetworkSendPath, CatNetworkDegrade, true},
		{CatComputeStraggler, CatPCIeDegrade, true},
		{CatUnknown, CatGPUHang, true},
		{CatNetworkSendPath, CatGPUHang, false},
		{CatProxyCrash, CatNotLaunched, false},
	}
	for _, c := range cases {
		if got := compatibleCategory(c.a, c.b); got != c.want {
			t.Errorf("compatibleCategory(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func BenchmarkFusion(b *testing.B) {
	f := NewFusion(FusionConfig{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := fat(time.Duration(i) * time.Millisecond)
		f.Observe(Evidence{Channel: ModalityLog, Rank: 5, Category: CatNetworkSendPath, At: at})
		rep := Report{Suspect: 5, Category: CatNetworkSendPath, AnalyzedAt: at}
		f.Finalize(&rep, Evidence{Channel: ModalityTracepoint, Rank: 5, Category: CatNetworkSendPath, At: at}, at)
	}
}
