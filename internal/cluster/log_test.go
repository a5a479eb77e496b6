package cluster

import (
	"testing"
	"time"

	"mycroft/internal/api"
)

// FuzzEventLog drives an EventLog through any sequence of Append,
// AppendEntries (seqs in any order, with duplicates and gaps) and TailAfter
// against a flat model that keeps every entry the log ever took. After each
// step the log holds at most DefaultLogCap entries, Trimmed plus Len is the
// count it took, the watermark never falls, AppendEntries' gap count is
// exact, and a tail is the model's newest DefaultLogCap entries past the
// cursor, ascending.
//
// The input is read three bytes a step: an op, then two arguments.
//   - op%3 == 0: Append 1+a*8 events, so a few steps fill the log;
//   - op%3 == 1: AppendEntries of a%16 entries, the i-th seq the model's
//     watermark moved by int8(b*(2i+1)) times 1, 2 or 4 (by the step count),
//     so below, at and past the head, in any order, with gaps;
//   - op%3 == 2: TailAfter a cursor a*32 below the watermark, max int(b)-8.
func FuzzEventLog(f *testing.F) {
	f.Add([]byte{0, 255, 0, 0, 255, 0, 0, 255, 0, 2, 0, 20})
	f.Add([]byte{1, 5, 3, 1, 4, 0, 1, 3, 0xfe, 2, 1, 0})
	f.Add([]byte{1, 1, 9, 0, 200, 0, 1, 15, 0x80, 0, 255, 0, 2, 200, 8})
	f.Add([]byte{2, 0, 0, 1, 2, 1, 2, 0, 100})
	f.Fuzz(func(t *testing.T, data []byte) {
		l := NewEventLog()
		var taken []uint64 // every seq the log took, in the order it took them
		var last uint64    // the model's watermark
		take := func(seq uint64) {
			taken = append(taken, seq)
			last = seq
		}
		step := 0
		for ; len(data) >= 3; data = data[3:] {
			op, a, b := data[0]%3, int(data[1]), data[2]
			step++
			switch op {
			case 0:
				for i := 0; i < 1+a*8; i++ {
					seq := l.Append(api.Event{Job: "j", At: time.Duration(last + 1)})
					if seq != last+1 {
						t.Fatalf("step %d: Append assigned seq %d, want %d", step, seq, last+1)
					}
					take(seq)
				}
			case 1:
				entries := make([]api.SeqEvent, a%16)
				var want uint64
				head := last
				for i := range entries {
					d := int64(int8(b*byte(2*i+1))) << (step % 3)
					seq := uint64(max(0, int64(last)+d))
					entries[i] = api.SeqEvent{Seq: seq, Event: api.Event{Job: "j", At: time.Duration(seq)}}
					if seq > head {
						want += seq - head - 1
						head = seq
					}
				}
				if gap := l.AppendEntries(entries); gap != want {
					t.Fatalf("step %d: AppendEntries(%v) gap %d, want %d", step, seqs(entries), gap, want)
				}
				for _, se := range entries {
					if se.Seq > last {
						take(se.Seq)
					}
				}
			case 2:
				after := last - min(last, uint64(a)*32)
				limit := int(b) - 8
				out, wm := l.TailAfter(after, limit)
				if wm != last {
					t.Fatalf("step %d: TailAfter watermark %d, want %d", step, wm, last)
				}
				if limit <= 0 {
					limit = 256
				}
				var want []uint64
				for _, seq := range taken[max(0, len(taken)-DefaultLogCap):] {
					if seq > after && len(want) < limit {
						want = append(want, seq)
					}
				}
				got := seqs(out)
				if len(got) != len(want) {
					t.Fatalf("step %d: TailAfter(%d, %d) = %v, want %v", step, after, limit, got, want)
				}
				for i := range got {
					if got[i] != want[i] || (i > 0 && got[i] <= got[i-1]) || out[i].Event.At != time.Duration(got[i]) {
						t.Fatalf("step %d: TailAfter(%d, %d) = %v, want %v", step, after, limit, got, want)
					}
				}
			}
			if n := l.Len(); n > DefaultLogCap || n != min(len(taken), DefaultLogCap) {
				t.Fatalf("step %d: Len %d with %d taken", step, n, len(taken))
			}
			if got := l.Trimmed() + uint64(l.Len()); got != uint64(len(taken)) {
				t.Fatalf("step %d: Trimmed+Len = %d, want %d taken", step, got, len(taken))
			}
			if wm := l.Watermark(); wm != last {
				t.Fatalf("step %d: watermark %d, want %d", step, wm, last)
			}
		}
	})
}

func seqs(entries []api.SeqEvent) []uint64 {
	out := make([]uint64, len(entries))
	for i, se := range entries {
		out[i] = se.Seq
	}
	return out
}
