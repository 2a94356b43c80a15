package obs

import (
	"reflect"
	"testing"
	"time"
)

// mkSpan builds one synthetic span; starts are millisecond offsets from a
// fixed base so ordering is explicit.
func mkSpan(stage Stage, server, origin int, epoch int64, startMS, durMS int64) Span {
	base := int64(1_000_000_000)
	return Span{
		Stage:     stage,
		Server:    server,
		Origin:    origin,
		Iteration: epoch,
		Start:     base + startMS*int64(time.Millisecond),
		Dur:       durMS * int64(time.Millisecond),
	}
}

func TestAnalyzeEpochsCriticalPath(t *testing.T) {
	spans := []Span{
		// Epoch 0: persist dominates (total 80ms vs queue 20ms vs merge
		// 30ms), and the most non-ack time sits on origin 3 (70ms vs 60ms).
		mkSpan(StageQueue, 1, 1, 0, 0, 10),
		mkSpan(StageQueue, 3, 3, 0, 0, 10),
		mkSpan(StagePersist, 1, 1, 0, 10, 20),
		mkSpan(StagePersist, 3, 3, 0, 10, 60),
		mkSpan(StageMerge, 1, 1, 0, 30, 30),
		mkSpan(StageAck, 1, 1, 0, 0, 60),
		mkSpan(StageAck, 3, 3, 0, 0, 61),
		// Epoch 2: merge dominates; two spans carry a cross-rank origin
		// (recorded on server 1 for work from rank 3, and the other way).
		mkSpan(StageWrite, 1, 3, 2, 100, 5),
		mkSpan(StageMerge, 1, 1, 2, 105, 40),
		mkSpan(StageCommit, 3, 1, 2, 150, 5),
		mkSpan(StagePersist, 3, 3, 2, 100, 10),
		mkSpan(StageAck, 3, 3, 2, 100, 200), // straggler: far past p99 of acks
	}
	reports := AnalyzeEpochs(spans)
	if len(reports) != 2 {
		t.Fatalf("epochs = %d, want 2", len(reports))
	}

	e0 := reports[0]
	if e0.Epoch != 0 || e0.Spans != 7 {
		t.Fatalf("epoch 0 header = %+v", e0)
	}
	if e0.DominantStage != "persist" {
		t.Errorf("epoch 0 dominant = %q, want persist", e0.DominantStage)
	}
	if e0.SlowestOrigin != 3 {
		t.Errorf("epoch 0 slowest origin = %d, want 3", e0.SlowestOrigin)
	}
	if !reflect.DeepEqual(e0.Origins, []int{1, 3}) {
		t.Errorf("epoch 0 origins = %v", e0.Origins)
	}
	if want := 0.07; e0.WallSeconds != want {
		t.Errorf("epoch 0 wall = %v, want %v", e0.WallSeconds, want)
	}

	e2 := reports[1]
	if e2.Epoch != 2 {
		t.Fatalf("second report is epoch %d, want 2", e2.Epoch)
	}
	if e2.DominantStage != "merge" {
		t.Errorf("epoch 2 dominant = %q, want merge", e2.DominantStage)
	}
	// Origins include the cross-rank spans' origin ranks.
	if !reflect.DeepEqual(e2.Origins, []int{1, 3}) {
		t.Errorf("epoch 2 origins = %v", e2.Origins)
	}
	// Epoch 2's 200ms ack exceeds the p99 of the 3-ack population.
	if !reflect.DeepEqual(e2.Stragglers, []int{3}) {
		t.Errorf("epoch 2 stragglers = %v, want [3]", e2.Stragglers)
	}
	if len(e0.Stragglers) != 0 {
		t.Errorf("epoch 0 stragglers = %v, want none", e0.Stragglers)
	}

	// The per-stage breakdown names the slowest origin of each stage.
	var persist *EpochStage
	for i := range e0.Stages {
		if e0.Stages[i].Stage == "persist" {
			persist = &e0.Stages[i]
		}
	}
	if persist == nil || persist.Count != 2 || persist.SlowestOrigin != 3 || persist.TotalSeconds != 0.08 {
		t.Errorf("epoch 0 persist breakdown = %+v", persist)
	}
}

func TestAnalyzeEpochsEdgeCases(t *testing.T) {
	if got := AnalyzeEpochs(nil); len(got) != 0 {
		t.Fatalf("empty span set produced %d reports", len(got))
	}
	// Spans with negative iterations (unknown epoch) are skipped.
	spans := []Span{mkSpan(StageEncode, 1, 1, -1, 0, 5)}
	if got := AnalyzeEpochs(spans); len(got) != 0 {
		t.Fatalf("negative-iteration span produced %d reports", len(got))
	}
	// An epoch that recorded nothing but its ack envelope still names a
	// dominant stage and a slowest origin — the acceptance criterion is
	// "every committed epoch", not "every epoch with rich traces".
	spans = []Span{mkSpan(StageAck, 2, 2, 7, 0, 30)}
	reports := AnalyzeEpochs(spans)
	if len(reports) != 1 {
		t.Fatalf("reports = %d, want 1", len(reports))
	}
	if reports[0].DominantStage != "ack" || reports[0].SlowestOrigin != 2 {
		t.Errorf("ack-only epoch = dominant %q, slowest %d; want ack/2",
			reports[0].DominantStage, reports[0].SlowestOrigin)
	}
}

// The analysis is a pure function of the span multiset: shuffled input
// order yields identical reports.
func TestAnalyzeEpochsOrderIndependent(t *testing.T) {
	spans := []Span{
		mkSpan(StageQueue, 1, 1, 0, 0, 10),
		mkSpan(StagePersist, 1, 1, 0, 10, 20),
		// Origin 2's total (30ms) ties origin 1's (10+20ms): lowest wins.
		mkSpan(StagePersist, 2, 2, 0, 10, 30),
		mkSpan(StageMerge, 1, 1, 1, 30, 15),
		mkSpan(StageAck, 2, 2, 1, 0, 50),
	}
	want := AnalyzeEpochs(spans)
	perm := []Span{spans[4], spans[2], spans[0], spans[3], spans[1]}
	got := AnalyzeEpochs(perm)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("reports depend on span order:\n%+v\nvs\n%+v", want, got)
	}
	if want[0].SlowestOrigin != 1 {
		t.Errorf("tie-broken slowest origin = %d, want 1 (lowest)", want[0].SlowestOrigin)
	}
}
