package obs

import (
	"testing"
	"time"
)

func TestStageStrings(t *testing.T) {
	want := map[Stage]string{
		StageValidate:    "validate",
		StageLocate:      "locate",
		StageQueuePop:    "queue_pop",
		StagePrune:       "prune",
		StageAnswerCheck: "answer_check",
	}
	if len(want) != NumStages {
		t.Fatalf("test covers %d stages, NumStages = %d", len(want), NumStages)
	}
	seen := map[string]bool{}
	for s, name := range want {
		if got := s.String(); got != name {
			t.Errorf("Stage(%d).String() = %q, want %q", s, got, name)
		}
		if seen[name] {
			t.Errorf("duplicate stage name %q", name)
		}
		seen[name] = true
	}
	if got := Stage(200).String(); got != "unknown" {
		t.Errorf("out-of-range stage name = %q, want unknown", got)
	}
}

func TestCountingAndMerge(t *testing.T) {
	var a, b Counting
	a.Event(Span{Stage: StageValidate})
	a.Event(Span{Stage: StagePrune})
	a.Event(Span{Stage: StagePrune})
	b.Event(Span{Stage: StageQueuePop})

	m := NewMetrics()
	m.MergeStages(a.Counts)
	m.MergeStages(b.Counts)
	total := m.Snapshot().Stages
	if total[StagePrune] != 2 || total[StageValidate] != 1 || total[StageQueuePop] != 1 {
		t.Errorf("merged counts = %v", total)
	}
	if total.Total() != 4 {
		t.Errorf("Total() = %d, want 4", total.Total())
	}
}

func TestTraceFlushAndDiscard(t *testing.T) {
	var tr Trace
	tr.Event(Span{Stage: StageLocate, Elapsed: time.Microsecond})
	tr.Event(Span{Stage: StageQueuePop, Elapsed: 2 * time.Microsecond})
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}

	var sink Counting
	tr.FlushTo(&sink)
	if sink.Counts.Total() != 2 {
		t.Errorf("flushed %d events, want 2", sink.Counts.Total())
	}
	// FlushTo(nil) must be a safe no-op (disabled recorder downstream).
	tr.FlushTo(nil)

	// A discarded (Reset without flush) trace contributes nothing more.
	tr.Reset()
	if tr.Len() != 0 {
		t.Errorf("Len after Reset = %d, want 0", tr.Len())
	}
	tr.Event(Span{Stage: StagePrune})
	tr.Reset() // discard, e.g. the query was cancelled
	tr.FlushTo(&sink)
	if sink.Counts.Total() != 2 {
		t.Errorf("discarded trace leaked events: total = %d, want 2", sink.Counts.Total())
	}
}

func TestNopRecorderIsZeroAlloc(t *testing.T) {
	var r Recorder = Nop{}
	allocs := testing.AllocsPerRun(100, func() {
		r.Event(Span{Stage: StageQueuePop, Elapsed: time.Millisecond, Gd: 1.5})
	})
	if allocs != 0 {
		t.Errorf("Nop.Event allocates %v per call, want 0", allocs)
	}
}
