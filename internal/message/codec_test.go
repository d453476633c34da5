package message

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/filter"
	"repro/internal/tick"
	"repro/internal/vtime"
)

func sampleEvent() *Event {
	return &Event{
		Pubend:    3,
		Timestamp: 12345,
		Attrs: filter.Attributes{
			"topic": filter.String("trades.NYSE"),
			"price": filter.Float(10.5),
			"qty":   filter.Int(-7),
			"hot":   filter.Bool(true),
		},
		Payload: []byte("hello world"),
	}
}

func eventsEqual(a, b *Event) bool {
	if a.Pubend != b.Pubend || a.Timestamp != b.Timestamp {
		return false
	}
	if string(a.Payload) != string(b.Payload) {
		return false
	}
	if len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for k, v := range a.Attrs {
		if !v.Equal(b.Attrs[k]) || v.Kind() != b.Attrs[k].Kind() {
			return false
		}
	}
	return true
}

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	buf, err := Encode(nil, m)
	if err != nil {
		t.Fatalf("encode %T: %v", m, err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("decode %T: %v", m, err)
	}
	if got.WireType() != m.WireType() {
		t.Fatalf("wire type changed: %v -> %v", m.WireType(), got.WireType())
	}
	return got
}

func TestKnowledgeRoundTrip(t *testing.T) {
	m := &Knowledge{
		Pubend: 7,
		Ranges: []tick.Range{
			{Start: 1, End: 9, Kind: tick.S},
			{Start: 10, End: 10, Kind: tick.L},
		},
		Events: []*Event{sampleEvent(), sampleEvent()},
	}
	got, ok := roundTrip(t, m).(*Knowledge)
	if !ok {
		t.Fatal("wrong type")
	}
	if got.Pubend != 7 || !reflect.DeepEqual(got.Ranges, m.Ranges) {
		t.Errorf("ranges mismatch: %+v", got)
	}
	if len(got.Events) != 2 || !eventsEqual(got.Events[0], m.Events[0]) {
		t.Errorf("events mismatch: %+v", got.Events)
	}
}

func TestKnowledgeEmptyRoundTrip(t *testing.T) {
	got, ok := roundTrip(t, &Knowledge{Pubend: 1}).(*Knowledge)
	if !ok || got.Pubend != 1 || len(got.Ranges) != 0 || len(got.Events) != 0 {
		t.Errorf("empty knowledge mismatch: %+v", got)
	}
}

func TestNackRoundTrip(t *testing.T) {
	m := &Nack{Pubend: 2, Spans: []tick.Span{{Start: 5, End: 9}, {Start: 20, End: 20}}}
	got, ok := roundTrip(t, m).(*Nack)
	if !ok || !reflect.DeepEqual(got, m) {
		t.Errorf("nack mismatch: %+v vs %+v", got, m)
	}
}

func TestReleaseRoundTrip(t *testing.T) {
	m := &Release{Pubend: 9, Released: 100, LatestDelivered: 200}
	got, ok := roundTrip(t, m).(*Release)
	if !ok || *got != *m {
		t.Errorf("release mismatch: %+v", got)
	}
}

func TestPublishRoundTrip(t *testing.T) {
	m := &Publish{
		PubendHint: 1,
		Token:      777,
		Attrs:      filter.Attributes{"a": filter.Int(1)},
		Payload:    []byte{1, 2, 3},
	}
	got, ok := roundTrip(t, m).(*Publish)
	if !ok || got.Token != 777 || got.PubendHint != 1 ||
		!got.Attrs["a"].Equal(filter.Int(1)) || string(got.Payload) != "\x01\x02\x03" {
		t.Errorf("publish mismatch: %+v", got)
	}
}

func TestPublishAckRoundTrip(t *testing.T) {
	m := &PublishAck{Token: 1, Pubend: 2, Timestamp: 3}
	got, ok := roundTrip(t, m).(*PublishAck)
	if !ok || *got != *m {
		t.Errorf("publish-ack mismatch: %+v", got)
	}
}

func TestSubscribeRoundTrip(t *testing.T) {
	ct := vtime.NewCheckpointToken()
	ct.Set(1, 50)
	ct.Set(2, 75)
	m := &Subscribe{
		Subscriber: 42,
		Filter:     `topic = "a" and price > 5`,
		CT:         ct,
		Resume:     true,
		Credits:    128,
	}
	got, ok := roundTrip(t, m).(*Subscribe)
	if !ok || got.Subscriber != 42 || got.Filter != m.Filter ||
		!got.CT.Equal(ct) || !got.Resume || got.Credits != 128 {
		t.Errorf("subscribe mismatch: %+v", got)
	}
}

func TestSubscribeAckRoundTrip(t *testing.T) {
	ct := vtime.NewCheckpointToken()
	ct.Set(4, 9)
	m := &SubscribeAck{Subscriber: 1, CT: ct, Err: "boom"}
	got, ok := roundTrip(t, m).(*SubscribeAck)
	if !ok || got.Err != "boom" || !got.CT.Equal(ct) {
		t.Errorf("subscribe-ack mismatch: %+v", got)
	}
}

func TestDeliverRoundTrip(t *testing.T) {
	m := &Deliver{
		Subscriber: 5,
		Deliveries: []Delivery{
			{Kind: DeliverEvent, Pubend: 1, Timestamp: 10, Event: sampleEvent()},
			{Kind: DeliverSilence, Pubend: 1, Timestamp: 20},
			{Kind: DeliverGap, Pubend: 2, Timestamp: 30},
		},
	}
	got, ok := roundTrip(t, m).(*Deliver)
	if !ok || got.Subscriber != 5 || len(got.Deliveries) != 3 {
		t.Fatalf("deliver mismatch: %+v", got)
	}
	if got.Deliveries[0].Kind != DeliverEvent || !eventsEqual(got.Deliveries[0].Event, sampleEvent()) {
		t.Errorf("event delivery mismatch")
	}
	if got.Deliveries[1].Kind != DeliverSilence || got.Deliveries[1].Timestamp != 20 {
		t.Errorf("silence delivery mismatch")
	}
	if got.Deliveries[2].Kind != DeliverGap || got.Deliveries[2].Pubend != 2 {
		t.Errorf("gap delivery mismatch")
	}
}

func TestAckCreditDetachRoundTrip(t *testing.T) {
	ct := vtime.NewCheckpointToken()
	ct.Set(1, 11)
	if got, ok := roundTrip(t, &Ack{Subscriber: 3, CT: ct}).(*Ack); !ok ||
		got.Subscriber != 3 || !got.CT.Equal(ct) {
		t.Errorf("ack mismatch: %+v", got)
	}
	if got, ok := roundTrip(t, &Credit{Subscriber: 3, Credits: 64}).(*Credit); !ok ||
		got.Credits != 64 {
		t.Errorf("credit mismatch: %+v", got)
	}
	if got, ok := roundTrip(t, &Detach{Subscriber: 8}).(*Detach); !ok || got.Subscriber != 8 {
		t.Errorf("detach mismatch: %+v", got)
	}
	if got, ok := roundTrip(t, &Leave{Name: "edge3"}).(*Leave); !ok || got.Name != "edge3" {
		t.Errorf("leave mismatch: %+v", got)
	}
	if got, ok := roundTrip(t, &SubSync{Token: 1 << 40}).(*SubSync); !ok || got.Token != 1<<40 {
		t.Errorf("sub-sync mismatch: %+v", got)
	}
}

func TestEventStandaloneCodec(t *testing.T) {
	e := sampleEvent()
	buf := AppendEvent(nil, e)
	got, n, err := DecodeEvent(buf)
	if err != nil {
		t.Fatalf("DecodeEvent: %v", err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d bytes", n, len(buf))
	}
	if !eventsEqual(e, got) {
		t.Errorf("event mismatch: %+v vs %+v", got, e)
	}
}

func TestEventClone(t *testing.T) {
	e := sampleEvent()
	c := e.Clone()
	c.Payload[0] = 'X'
	c.Attrs["topic"] = filter.String("other")
	if e.Payload[0] == 'X' || e.Attrs["topic"].Str() != "trades.NYSE" {
		t.Error("Clone aliased the original")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("decoding empty buffer should fail")
	}
	if _, err := Decode([]byte{200}); err == nil {
		t.Error("unknown type should fail")
	}
	// Truncate every valid encoding at every point: must error, not panic.
	msgs := []Message{
		&Knowledge{Pubend: 1, Ranges: []tick.Range{{Start: 1, End: 2, Kind: tick.S}},
			Events: []*Event{sampleEvent()}},
		&Nack{Pubend: 1, Spans: []tick.Span{{Start: 1, End: 2}}},
		&Release{Pubend: 1, Released: 2, LatestDelivered: 3},
		&Publish{Attrs: filter.Attributes{"a": filter.String("b")}, Payload: []byte("x")},
		&Subscribe{Subscriber: 1, Filter: "true", CT: vtime.NewCheckpointToken()},
		&Deliver{Subscriber: 1, Deliveries: []Delivery{
			{Kind: DeliverEvent, Pubend: 1, Timestamp: 2, Event: sampleEvent()}}},
		&Ack{Subscriber: 1, CT: vtime.NewCheckpointToken()},
	}
	for _, m := range msgs {
		full, err := Encode(nil, m)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		for cut := 1; cut < len(full); cut++ {
			if _, err := Decode(full[:cut]); err == nil {
				t.Errorf("%T truncated at %d/%d decoded successfully", m, cut, len(full))
				break
			}
		}
	}
}

// Property: Decode never panics on arbitrary bytes.
func TestDecodeNeverPanicsQuick(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Decode(b) //nolint:errcheck // only checking for panics
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: random knowledge messages survive a round trip.
func TestKnowledgeRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		m := &Knowledge{Pubend: vtime.PubendID(rng.Uint32())}
		for i := rng.Intn(5); i > 0; i-- {
			start := vtime.Timestamp(rng.Int63n(1 << 40))
			m.Ranges = append(m.Ranges, tick.Range{
				Start: start,
				End:   start + vtime.Timestamp(rng.Int63n(1000)),
				Kind:  []tick.Kind{tick.Q, tick.S, tick.D, tick.L}[rng.Intn(4)],
			})
		}
		for i := rng.Intn(3); i > 0; i-- {
			payload := make([]byte, rng.Intn(64))
			rng.Read(payload)
			m.Events = append(m.Events, &Event{
				Pubend:    m.Pubend,
				Timestamp: vtime.Timestamp(rng.Int63n(1 << 40)),
				Attrs:     filter.Attributes{"n": filter.Int(rng.Int63())},
				Payload:   payload,
			})
		}
		got, ok := roundTrip(t, m).(*Knowledge)
		if !ok {
			t.Fatal("wrong type")
		}
		if !reflect.DeepEqual(got.Ranges, m.Ranges) && !(len(got.Ranges) == 0 && len(m.Ranges) == 0) {
			t.Fatalf("trial %d ranges mismatch", trial)
		}
		if len(got.Events) != len(m.Events) {
			t.Fatalf("trial %d events count mismatch", trial)
		}
		for i := range m.Events {
			if !eventsEqual(got.Events[i], m.Events[i]) {
				t.Fatalf("trial %d event %d mismatch", trial, i)
			}
		}
	}
}

func TestHelloSubUpdateRoundTrip(t *testing.T) {
	if got, ok := roundTrip(t, &Hello{Role: RoleSubscriber, Name: "client-7"}).(*Hello); !ok ||
		got.Role != RoleSubscriber || got.Name != "client-7" || got.Info {
		t.Errorf("hello mismatch: %+v", got)
	}
	info := &Hello{Role: RoleBroker, Name: "mid2", Info: true, Root: "phb", Epoch: 7, Depth: 3}
	if got, ok := roundTrip(t, info).(*Hello); !ok || *got != *info {
		t.Errorf("info hello mismatch: %+v", got)
	}
	probe := &Hello{Role: RoleProbe, Name: "shb4"}
	if got, ok := roundTrip(t, probe).(*Hello); !ok || *got != *probe {
		t.Errorf("probe hello mismatch: %+v", got)
	}
	m := &SubUpdate{Subscriber: 4, Filter: `topic = "x"`, Remove: true}
	if got, ok := roundTrip(t, m).(*SubUpdate); !ok || *got != *m {
		t.Errorf("sub-update mismatch: %+v", got)
	}
	for _, r := range []LinkRole{RoleBroker, RolePublisher, RoleSubscriber, RoleProbe, LinkRole(9)} {
		if r.String() == "" {
			t.Error("empty role string")
		}
	}
}
