package pfs

import (
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/logvol"
	"repro/internal/metastore"
	"repro/internal/tick"
	"repro/internal/vtime"
)

type fixture struct {
	pfs  *PFS
	vol  *logvol.Volume
	meta *metastore.Store
	dir  string
}

func newFixture(t *testing.T, opts Options) *fixture {
	t.Helper()
	dir := t.TempDir()
	return openFixture(t, dir, opts)
}

func openFixture(t *testing.T, dir string, opts Options) *fixture {
	t.Helper()
	vol, err := logvol.Open(filepath.Join(dir, "pfs.log"), logvol.Options{})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := metastore.Open(filepath.Join(dir, "meta.wal"), metastore.Options{Sync: metastore.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	opts.Volume = vol
	opts.Meta = meta
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{pfs: p, vol: vol, meta: meta, dir: dir}
	t.Cleanup(func() {
		vol.Close()  //nolint:errcheck
		meta.Close() //nolint:errcheck
	})
	return f
}

// spansToTicks expands spans into a tick set for comparison.
func spansToTicks(spans []tick.Span) map[vtime.Timestamp]bool {
	out := map[vtime.Timestamp]bool{}
	for _, sp := range spans {
		for ts := sp.Start; ts <= sp.End; ts++ {
			out[ts] = true
		}
	}
	return out
}

func TestWriteRequiresOptions(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("New without Volume/Meta should fail")
	}
}

func TestWriteReadBasic(t *testing.T) {
	f := newFixture(t, Options{})
	// Figure 2's example: records at ts 1 (s1, s3), 3 (s2), 4 (s1, s3),
	// 5 (s1, s2); ts 2 matches nobody.
	writes := []struct {
		ts   vtime.Timestamp
		subs []vtime.SubscriberID
	}{
		{1, []vtime.SubscriberID{1, 3}},
		{3, []vtime.SubscriberID{2}},
		{4, []vtime.SubscriberID{1, 3}},
		{5, []vtime.SubscriberID{1, 2}},
	}
	for _, w := range writes {
		if err := f.pfs.Write(1, w.ts, w.subs); err != nil {
			t.Fatalf("Write(%d): %v", w.ts, err)
		}
	}
	if got := f.pfs.LastTimestamp(1); got != 5 {
		t.Errorf("LastTimestamp = %d", got)
	}
	if got := f.pfs.RecordCount(1); got != 4 {
		t.Errorf("RecordCount = %d", got)
	}

	// s3 reads [1,10] (from=0): Q at 1 and 4; 6-10 unknown → Q.
	res, err := f.pfs.Read(1, 3, 0, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	ticks := spansToTicks(res.QSpans)
	for _, want := range []vtime.Timestamp{1, 4, 6, 7, 8, 9, 10} {
		if !ticks[want] {
			t.Errorf("s3 missing Q tick %d (spans %v)", want, res.QSpans)
		}
	}
	for _, s := range []vtime.Timestamp{2, 3, 5} {
		if ticks[s] {
			t.Errorf("s3 has spurious Q tick %d", s)
		}
	}
	if !res.Complete || res.KnownUpTo != 10 || res.LostUpTo != 0 {
		t.Errorf("res = %+v", res)
	}

	// s2: Q at 3 and 5 plus unknown tail.
	res, err = f.pfs.Read(1, 2, 0, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	ticks = spansToTicks(res.QSpans)
	if !ticks[3] || !ticks[5] || ticks[1] || ticks[4] {
		t.Errorf("s2 spans wrong: %v", res.QSpans)
	}

	// Unknown subscriber: everything ≤ lastTS is S, tail is Q.
	res, err = f.pfs.Read(1, 99, 0, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	ticks = spansToTicks(res.QSpans)
	for ts := vtime.Timestamp(1); ts <= 5; ts++ {
		if ticks[ts] {
			t.Errorf("unknown sub has Q at %d", ts)
		}
	}
	for ts := vtime.Timestamp(6); ts <= 10; ts++ {
		if !ticks[ts] {
			t.Errorf("unknown sub missing Q at %d", ts)
		}
	}
}

func TestReadWindowing(t *testing.T) {
	f := newFixture(t, Options{})
	for ts := vtime.Timestamp(1); ts <= 100; ts++ {
		if ts%10 == 0 {
			if err := f.pfs.Write(1, ts, []vtime.SubscriberID{7}); err != nil {
				t.Fatal(err)
			}
		} else if err := f.pfs.Write(1, ts, []vtime.SubscriberID{8}); err != nil {
			t.Fatal(err)
		}
	}
	// Read a middle window (25, 75] for sub 7: Q at 30..70 by 10s.
	res, err := f.pfs.Read(1, 7, 25, 75, 0)
	if err != nil {
		t.Fatal(err)
	}
	ticks := spansToTicks(res.QSpans)
	want := []vtime.Timestamp{30, 40, 50, 60, 70}
	if len(ticks) != len(want) {
		t.Fatalf("window read spans = %v", res.QSpans)
	}
	for _, ts := range want {
		if !ticks[ts] {
			t.Errorf("missing Q at %d", ts)
		}
	}
	// Empty interval.
	res, err = f.pfs.Read(1, 7, 50, 50, 0)
	if err != nil || len(res.QSpans) != 0 || !res.Complete {
		t.Errorf("empty interval read = %+v, %v", res, err)
	}
}

func TestReadMaxQTruncation(t *testing.T) {
	f := newFixture(t, Options{})
	for ts := vtime.Timestamp(1); ts <= 50; ts++ {
		if err := f.pfs.Write(1, ts, []vtime.SubscriberID{1}); err != nil {
			t.Fatal(err)
		}
	}
	// Adjacent single ticks coalesce into one span, so interleave.
	res, err := f.pfs.Read(1, 1, 0, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.QSpans) != 1 || res.QSpans[0] != (tick.Span{Start: 1, End: 50}) {
		t.Fatalf("coalescing failed: %v", res.QSpans)
	}

	// Now a sparse subscriber to exercise truncation.
	f2 := newFixture(t, Options{})
	for i := 0; i < 20; i++ {
		ts := vtime.Timestamp(1 + i*10)
		if err := f2.pfs.Write(1, ts, []vtime.SubscriberID{1}); err != nil {
			t.Fatal(err)
		}
	}
	res, err = f2.pfs.Read(1, 1, 0, 191, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Error("truncated read reported complete")
	}
	if len(res.QSpans) != 3 {
		t.Fatalf("truncated spans = %v", res.QSpans)
	}
	if res.KnownUpTo != res.QSpans[2].End {
		t.Errorf("KnownUpTo = %d, want %d", res.KnownUpTo, res.QSpans[2].End)
	}
	// Continue from KnownUpTo: eventually cover everything.
	seen := spansToTicks(res.QSpans)
	from := res.KnownUpTo
	for !res.Complete {
		res, err = f2.pfs.Read(1, 1, from, 191, 3)
		if err != nil {
			t.Fatal(err)
		}
		for ts := range spansToTicks(res.QSpans) {
			seen[ts] = true
		}
		from = res.KnownUpTo
	}
	for i := 0; i < 20; i++ {
		if !seen[vtime.Timestamp(1+i*10)] {
			t.Errorf("resumed reads missed tick %d", 1+i*10)
		}
	}
}

func TestWriteMonotonicity(t *testing.T) {
	f := newFixture(t, Options{})
	if err := f.pfs.Write(1, 10, []vtime.SubscriberID{1}); err != nil {
		t.Fatal(err)
	}
	if err := f.pfs.Write(1, 10, []vtime.SubscriberID{1}); err == nil {
		t.Error("duplicate timestamp accepted")
	}
	if err := f.pfs.Write(1, 5, []vtime.SubscriberID{1}); err == nil {
		t.Error("rewinding timestamp accepted")
	}
	// Other pubends are independent.
	if err := f.pfs.Write(2, 5, []vtime.SubscriberID{1}); err != nil {
		t.Errorf("other pubend rejected: %v", err)
	}
	// Empty subscriber list writes nothing.
	if err := f.pfs.Write(1, 11, nil); err != nil {
		t.Fatal(err)
	}
	if got := f.pfs.RecordCount(1); got != 1 {
		t.Errorf("empty write created a record: %d", got)
	}
}

func TestRecovery(t *testing.T) {
	dir := t.TempDir()
	f := openFixture(t, dir, Options{SyncEvery: 5})
	for ts := vtime.Timestamp(1); ts <= 20; ts++ {
		subs := []vtime.SubscriberID{vtime.SubscriberID(ts % 3)}
		if err := f.pfs.Write(1, ts, subs); err != nil {
			t.Fatal(err)
		}
	}
	// Close without a final Sync: metadata checkpoint lags behind.
	f.vol.Close()  //nolint:errcheck
	f.meta.Close() //nolint:errcheck

	f2 := openFixture(t, dir, Options{})
	if got := f2.pfs.LastTimestamp(1); got != 20 {
		t.Errorf("recovered LastTimestamp = %d, want 20", got)
	}
	// Sub 0 matched ts 3,6,9,12,15,18.
	res, err := f2.pfs.Read(1, 0, 0, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	ticks := spansToTicks(res.QSpans)
	for _, want := range []vtime.Timestamp{3, 6, 9, 12, 15, 18} {
		if !ticks[want] {
			t.Errorf("recovered read missing %d (spans %v)", want, res.QSpans)
		}
	}
	if ticks[2] || ticks[4] {
		t.Errorf("recovered read has spurious ticks: %v", res.QSpans)
	}
	// Writes continue with correct backpointers after recovery.
	if err := f2.pfs.Write(1, 21, []vtime.SubscriberID{0}); err != nil {
		t.Fatal(err)
	}
	res, err = f2.pfs.Read(1, 0, 0, 21, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !spansToTicks(res.QSpans)[21] || !spansToTicks(res.QSpans)[18] {
		t.Errorf("chain broken after recovery: %v", res.QSpans)
	}
}

func TestChopProducesLoss(t *testing.T) {
	f := newFixture(t, Options{})
	for ts := vtime.Timestamp(1); ts <= 30; ts++ {
		if err := f.pfs.Write(1, ts, []vtime.SubscriberID{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.pfs.Chop(1, 10); err != nil {
		t.Fatal(err)
	}
	if got := f.pfs.RecordCount(1); got != 20 {
		t.Errorf("RecordCount after chop = %d, want 20", got)
	}
	// A reader starting below the chop sees the loss.
	res, err := f.pfs.Read(1, 1, 0, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.LostUpTo != 10 {
		t.Errorf("LostUpTo = %d, want 10", res.LostUpTo)
	}
	ticks := spansToTicks(res.QSpans)
	for ts := vtime.Timestamp(1); ts <= 10; ts++ {
		if ticks[ts] {
			t.Errorf("Q tick %d inside lost prefix", ts)
		}
	}
	for ts := vtime.Timestamp(11); ts <= 30; ts++ {
		if !ticks[ts] {
			t.Errorf("missing Q tick %d above loss", ts)
		}
	}
	// A reader starting above the chop is unaffected.
	res, err = f.pfs.Read(1, 1, 15, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.LostUpTo != 0 {
		t.Errorf("reader above chop got LostUpTo = %d", res.LostUpTo)
	}
	// Backwards chop is a no-op.
	if err := f.pfs.Chop(1, 5); err != nil {
		t.Fatal(err)
	}
	if got := f.pfs.RecordCount(1); got != 20 {
		t.Errorf("backwards chop changed records: %d", got)
	}
}

func TestChopSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	f := openFixture(t, dir, Options{})
	for ts := vtime.Timestamp(1); ts <= 10; ts++ {
		f.pfs.Write(1, ts, []vtime.SubscriberID{1}) //nolint:errcheck
	}
	f.pfs.Chop(1, 4) //nolint:errcheck
	f.pfs.Sync()     //nolint:errcheck
	f.vol.Close()    //nolint:errcheck
	f.meta.Close()   //nolint:errcheck

	f2 := openFixture(t, dir, Options{})
	res, err := f2.pfs.Read(1, 1, 0, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.LostUpTo != 4 {
		t.Errorf("recovered LostUpTo = %d, want 4", res.LostUpTo)
	}
}

func TestImpreciseMode(t *testing.T) {
	f := newFixture(t, Options{ImpreciseBucket: 10})
	// Sub 1 matches every tick 1..40: only ~4 records written.
	for ts := vtime.Timestamp(1); ts <= 40; ts++ {
		if err := f.pfs.Write(1, ts, []vtime.SubscriberID{1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.pfs.RecordCount(1); got != 4 {
		t.Errorf("imprecise mode wrote %d records, want 4", got)
	}
	// Reads stay correct: every matched tick is inside a Q span.
	res, err := f.pfs.Read(1, 1, 0, 40, 0)
	if err != nil {
		t.Fatal(err)
	}
	ticks := spansToTicks(res.QSpans)
	for ts := vtime.Timestamp(1); ts <= 40; ts++ {
		if !ticks[ts] {
			t.Errorf("imprecise read missing tick %d (spans %v)", ts, res.QSpans)
		}
	}
}

func TestImpreciseNeverMissesSparseMatches(t *testing.T) {
	f := newFixture(t, Options{ImpreciseBucket: 5})
	matched := []vtime.Timestamp{1, 3, 8, 20, 21, 22, 40}
	for _, ts := range matched {
		if err := f.pfs.Write(1, ts, []vtime.SubscriberID{1}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := f.pfs.Read(1, 1, 0, 45, 0)
	if err != nil {
		t.Fatal(err)
	}
	ticks := spansToTicks(res.QSpans)
	for _, ts := range matched {
		if !ticks[ts] {
			t.Errorf("imprecise read missing matched tick %d (spans %v)", ts, res.QSpans)
		}
	}
}

// Model-based check: random writes for several subscribers, then reads at
// random windows must classify every matched tick as Q, never classify a
// matched tick as S, and (precise mode) never classify an unmatched tick
// below lastTS as Q.
func TestReadMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const horizon = 300
	for trial := 0; trial < 10; trial++ {
		f := newFixture(t, Options{})
		matches := map[vtime.SubscriberID]map[vtime.Timestamp]bool{}
		for sub := vtime.SubscriberID(0); sub < 4; sub++ {
			matches[sub] = map[vtime.Timestamp]bool{}
		}
		lastTS := vtime.ZeroTS
		for ts := vtime.Timestamp(1); ts <= horizon; ts++ {
			var subs []vtime.SubscriberID
			for sub := vtime.SubscriberID(0); sub < 4; sub++ {
				if rng.Intn(4) == 0 {
					subs = append(subs, sub)
					matches[sub][ts] = true
				}
			}
			if len(subs) > 0 {
				if err := f.pfs.Write(1, ts, subs); err != nil {
					t.Fatal(err)
				}
				lastTS = ts
			}
		}
		for probe := 0; probe < 30; probe++ {
			sub := vtime.SubscriberID(rng.Intn(4))
			from := vtime.Timestamp(rng.Intn(horizon))
			to := from + vtime.Timestamp(rng.Intn(horizon/2)+1)
			res, err := f.pfs.Read(1, sub, from, to, 0)
			if err != nil {
				t.Fatal(err)
			}
			ticks := spansToTicks(res.QSpans)
			for ts := from + 1; ts <= to; ts++ {
				isQ := ticks[ts]
				matched := matches[sub][ts]
				if matched && !isQ {
					t.Fatalf("trial %d: sub %d tick %d matched but classified S", trial, sub, ts)
				}
				if !matched && isQ && ts <= lastTS {
					t.Fatalf("trial %d: sub %d tick %d unmatched but classified Q (precise mode)", trial, sub, ts)
				}
				if !matched && !isQ && ts > lastTS {
					t.Fatalf("trial %d: sub %d tick %d beyond lastTS classified S", trial, sub, ts)
				}
			}
		}
	}
}

// TestCatchupReadAllocsGate is the allocation regression gate for the
// catchup read path: backpointer-chain walks over a warm decode cache with
// a caller-reused Q-span buffer. The pooled read scratch, the ref-counted
// decode arenas, and ReadAppend's buffer reuse keep a 64-event batch read
// under one allocation; a regression (an unpooled window, a per-record
// slice pair, a rebuilt span slice) adds at least one per batch.
func TestCatchupReadAllocsGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	const (
		batch  = 64
		events = 2048
		runs   = 30
	)
	f := newFixture(t, Options{})
	for ts := vtime.Timestamp(1); ts <= events; ts++ {
		subs := []vtime.SubscriberID{1, 2}
		if ts%2 == 0 {
			subs = subs[:1]
		}
		if err := f.pfs.Write(1, ts, subs); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]tick.Span, 0, 64)
	// Warm up: the first full-range read pages every record into the
	// decode cache and sizes the pooled scratch.
	for from := vtime.Timestamp(0); from < events; from += batch {
		res, err := f.pfs.ReadAppend(1, 1, from, from+batch, 0, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
		dst = res.QSpans
	}
	from := vtime.Timestamp(0)
	avg := testing.AllocsPerRun(runs, func() {
		res, err := f.pfs.ReadAppend(1, 1, from, from+batch, 0, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
		dst = res.QSpans
		from += batch
		if from+batch > events {
			from = 0
		}
	})
	t.Logf("catchup read: %.3f allocs per %d-event batch", avg, batch)
	if avg >= 1.0 {
		t.Errorf("catchup batch read allocates %.3f, gate is <1 per %d-event batch", avg, batch)
	}
}

// TestChopDoesNoPerRecordWork pins the release-path cost of Chop: with
// 32 768 live records (one flood period between two broker PFS chops) it
// finds the chop index from the in-memory (ts, idx) list, so it issues no
// log reads at all and a handful of allocations in total, not one per
// record. After a restart the list holds only what recovery replayed (the
// tail past the checkpoint); a chop among the older records must land in
// the same place with a binary search's worth of log reads.
func TestChopDoesNoPerRecordWork(t *testing.T) {
	const records, keep = 32768, 100
	dir := t.TempDir()
	f := openFixture(t, dir, Options{})
	for ts := vtime.Timestamp(1); ts <= records; ts++ {
		// Sparse timestamps: chopping between two records must pick the lower.
		if err := f.pfs.Write(1, 2*ts, []vtime.SubscriberID{1}); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	readsBefore := f.vol.Reads()
	runtime.ReadMemStats(&before)
	if err := f.pfs.Chop(1, 2*(records-keep)+1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := f.vol.Reads() - readsBefore; got != 0 {
		t.Errorf("Chop over %d live records issued %d log reads, want 0", records, got)
	}
	if allocs := after.Mallocs - before.Mallocs; !raceEnabled && allocs > 64 {
		t.Errorf("Chop over %d live records made %d allocations, want a constant handful", records, allocs)
	}
	if got := f.pfs.RecordCount(1); got != keep {
		t.Fatalf("RecordCount after chop = %d, want %d", got, keep)
	}
	res, err := f.pfs.Read(1, 1, 0, 2*records, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := vtime.Timestamp(2*(records-keep) + 1); res.LostUpTo != want {
		t.Errorf("LostUpTo = %d, want %d", res.LostUpTo, want)
	}
	if len(res.QSpans) != keep {
		t.Errorf("read above the chop found %d Q ticks, want %d", len(res.QSpans), keep)
	}

	// Checkpoint everything and reopen: recovery reads nothing back, so the
	// surviving records are known to the log alone.
	if err := f.pfs.Sync(); err != nil {
		t.Fatal(err)
	}
	f.vol.Close()  //nolint:errcheck
	f.meta.Close() //nolint:errcheck
	f2 := openFixture(t, dir, Options{})
	if got := f2.vol.Reads(); got != 0 {
		t.Errorf("recovery behind a full checkpoint issued %d log reads, want 0", got)
	}
	if err := f2.pfs.Write(1, 2*records+2, []vtime.SubscriberID{1}); err != nil {
		t.Fatal(err)
	}
	if err := f2.pfs.Chop(1, 2*(records-keep/2)); err != nil {
		t.Fatal(err)
	}
	if got := f2.pfs.RecordCount(1); got != keep/2+1 {
		t.Errorf("RecordCount after recovered chop = %d, want %d", got, keep/2+1)
	}
	if got := f2.vol.Reads(); got == 0 || got > 16 {
		t.Errorf("chop among %d unlisted records issued %d log reads, want a binary search's", keep, got)
	}
	// The next chop lies in the list again (the record written after the
	// restart): no reads.
	readsBefore = f2.vol.Reads()
	if err := f2.pfs.Chop(1, 2*records+2); err != nil {
		t.Fatal(err)
	}
	if got := f2.pfs.RecordCount(1); got != 0 {
		t.Errorf("RecordCount after chopping everything = %d, want 0", got)
	}
	if got := f2.vol.Reads() - readsBefore; got != 0 {
		t.Errorf("chop inside the list issued %d log reads, want 0", got)
	}
}
