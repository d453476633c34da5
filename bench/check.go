package main

import (
	"sort"

	"repro"
	"repro/internal/message"
)

// The reference model. The benchmark knows every event it published and, by
// evaluating the generated filters itself, which of them each subscriber
// must receive. A durable subscriber's contract is exactly-once, in order,
// gapless, per pubend — so per pubend the expected stream is simply the
// matching events in publish order (one publisher connection, so publish
// order is timestamp order).

// received is one delivery as the subscriber's consumer saw it.
type received struct {
	at     int64 // ns since the run's t0
	kind   message.DeliverKind
	pubend repro.PubendID
	ts     repro.Timestamp
	seq    int  // the event's "seq" attribute; -1 when absent
	intact bool // payload bytes equal the generated ones, and the timestamp is the one the PHB acked
}

// verdict counts one subscriber's departures from the contract.
type verdict struct {
	expected  int // events the subscriber must receive
	delivered int // of those, received in order, exactly once
	lost      int // expected and never received
	duplicate int // received more than once
	reordered int // received after an event that follows it in publish order
	gaps      int // gap deliveries: the system declared events unrecoverable
	spurious  int // events the filter does not match, or that were never published
	corrupt   int // right event, wrong payload bytes or wrong timestamp
}

// failures is the number of deliveries that broke the contract.
func (v verdict) failures() int {
	return v.lost + v.duplicate + v.reordered + v.gaps + v.spurious + v.corrupt
}

func (v *verdict) add(o verdict) {
	v.expected += o.expected
	v.delivered += o.delivered
	v.lost += o.lost
	v.duplicate += o.duplicate
	v.reordered += o.reordered
	v.gaps += o.gaps
	v.spurious += o.spurious
	v.corrupt += o.corrupt
}

// checkDeliveries judges got against expected, where expected[p] lists the
// seqs the subscriber must receive from pubend p, ascending (seq grows in
// publish order).
func checkDeliveries(expected map[repro.PubendID][]int, got []received) verdict {
	var total verdict
	byPubend := make(map[repro.PubendID][]received)
	for _, r := range got {
		byPubend[r.pubend] = append(byPubend[r.pubend], r)
	}
	for p, want := range expected {
		total.add(checkStream(want, byPubend[p]))
		delete(byPubend, p)
	}
	for _, rest := range byPubend { // deliveries from pubends nothing was expected from
		total.add(checkStream(nil, rest))
	}
	return total
}

// checkStream walks one pubend's deliveries against its expected seqs.
func checkStream(want []int, got []received) verdict {
	v := verdict{expected: len(want)}
	seen := make([]bool, len(want))
	skipped := 0 // expected events jumped over and not (yet) seen
	next := 0    // index into want of the next in-order event
	for _, r := range got {
		if r.kind == repro.DeliverGap {
			v.gaps++
			continue
		}
		if r.kind != repro.DeliverEvent {
			continue
		}
		i := sort.SearchInts(want, r.seq)
		switch {
		case i == len(want) || want[i] != r.seq:
			v.spurious++
		case seen[i]:
			v.duplicate++
		case i < next: // jumped over earlier, turning up late
			seen[i] = true
			skipped--
			v.reordered++
		default:
			seen[i] = true
			skipped += i - next
			next = i + 1
			if r.intact {
				v.delivered++
			} else {
				v.corrupt++
			}
		}
	}
	v.lost = skipped + len(want) - next
	return v
}
