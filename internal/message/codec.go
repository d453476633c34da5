package message

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/filter"
	"repro/internal/tick"
	"repro/internal/vtime"
)

// ErrTruncated reports a message body shorter than its structure requires.
var ErrTruncated = errors.New("message: truncated")

// Encode serializes m (type discriminator followed by body) and appends it
// to buf, returning the extended slice. It never fails for well-formed
// messages built through this package's types.
func Encode(buf []byte, m Message) ([]byte, error) {
	buf = append(buf, byte(m.WireType()))
	switch v := m.(type) {
	case *Knowledge:
		buf = binary.BigEndian.AppendUint32(buf, uint32(v.Pubend))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v.Ranges)))
		for _, r := range v.Ranges {
			buf = appendRange(buf, r)
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v.Events)))
		for _, e := range v.Events {
			buf = appendEvent(buf, e)
		}
	case *Nack:
		buf = binary.BigEndian.AppendUint32(buf, uint32(v.Pubend))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v.Spans)))
		for _, s := range v.Spans {
			buf = binary.BigEndian.AppendUint64(buf, uint64(s.Start))
			buf = binary.BigEndian.AppendUint64(buf, uint64(s.End))
		}
	case *Release:
		buf = binary.BigEndian.AppendUint32(buf, uint32(v.Pubend))
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Released))
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.LatestDelivered))
	case *Publish:
		buf = binary.BigEndian.AppendUint32(buf, uint32(v.PubendHint))
		buf = binary.BigEndian.AppendUint64(buf, v.Token)
		buf = appendAttrs(buf, v.Attrs)
		buf = appendBytes(buf, v.Payload)
	case *PublishAck:
		buf = binary.BigEndian.AppendUint64(buf, v.Token)
		buf = binary.BigEndian.AppendUint32(buf, uint32(v.Pubend))
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Timestamp))
	case *Subscribe:
		buf = binary.BigEndian.AppendUint32(buf, uint32(v.Subscriber))
		buf = appendString(buf, v.Filter)
		buf = v.CT.Encode(buf)
		if v.Resume {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.BigEndian.AppendUint32(buf, v.Credits)
	case *SubscribeAck:
		buf = binary.BigEndian.AppendUint32(buf, uint32(v.Subscriber))
		buf = v.CT.Encode(buf)
		buf = appendString(buf, v.Err)
	case *Deliver:
		buf = binary.BigEndian.AppendUint32(buf, uint32(v.Subscriber))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v.Deliveries)))
		for _, d := range v.Deliveries {
			buf = append(buf, byte(d.Kind))
			buf = binary.BigEndian.AppendUint32(buf, uint32(d.Pubend))
			buf = binary.BigEndian.AppendUint64(buf, uint64(d.Timestamp))
			if d.Kind == DeliverEvent {
				buf = appendEvent(buf, d.Event)
			}
		}
	case *Ack:
		buf = binary.BigEndian.AppendUint32(buf, uint32(v.Subscriber))
		buf = v.CT.Encode(buf)
	case *Credit:
		buf = binary.BigEndian.AppendUint32(buf, uint32(v.Subscriber))
		buf = binary.BigEndian.AppendUint32(buf, v.Credits)
	case *Detach:
		buf = binary.BigEndian.AppendUint32(buf, uint32(v.Subscriber))
	case *Hello:
		buf = append(buf, byte(v.Role))
		buf = appendString(buf, v.Name)
		if v.Info {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = appendString(buf, v.Root)
		buf = binary.BigEndian.AppendUint64(buf, v.Epoch)
		buf = binary.BigEndian.AppendUint32(buf, v.Depth)
	case *SubUpdate:
		buf = binary.BigEndian.AppendUint32(buf, uint32(v.Subscriber))
		buf = appendString(buf, v.Filter)
		if v.Remove {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case *Unsubscribe:
		buf = binary.BigEndian.AppendUint32(buf, uint32(v.Subscriber))
	case *Leave:
		buf = appendString(buf, v.Name)
	case *SubSync:
		buf = binary.BigEndian.AppendUint64(buf, v.Token)
	default:
		return nil, fmt.Errorf("message: cannot encode %T", m)
	}
	return buf, nil
}

// Decode parses one message produced by Encode. Decoded messages own
// every byte they reference: payloads and strings are copied out of buf,
// so the caller may reuse buf immediately.
func Decode(buf []byte) (Message, error) {
	return decode(buf, nil)
}

// DecodeShared parses one message from a pooled frame buffer, decoding
// once and sharing the buffer instead of copying it. Knowledge frames —
// the broker→broker event stream, the only high-volume event carrier on
// ingress — are decoded zero-copy: each event's Payload aliases ref's
// buffer and the event remembers ref, so consumers retain/release the
// frame rather than copying payload bytes. Every other message type is
// decoded with full copy semantics (client-bound and client-originated
// messages hand byte slices to application code that is free to keep
// them), so the caller can always release its ref as soon as the handler
// returns.
func DecodeShared(ref *Ref) (Message, error) {
	buf := ref.Bytes()
	if len(buf) > 0 && Type(buf[0]) == TypeKnowledge {
		return decode(buf, ref)
	}
	return decode(buf, nil)
}

func decode(buf []byte, ref *Ref) (Message, error) {
	if len(buf) == 0 {
		return nil, ErrTruncated
	}
	r := &reader{buf: buf[1:], ref: ref}
	var m Message
	switch Type(buf[0]) {
	case TypeKnowledge:
		v := &Knowledge{Pubend: vtime.PubendID(r.u32())}
		n := int(r.u32())
		if !r.checkCount(n, 17) {
			return nil, r.fail()
		}
		v.Ranges = make([]tick.Range, n)
		for i := range v.Ranges {
			v.Ranges[i] = r.tickRange()
		}
		n = int(r.u32())
		if !r.checkCount(n, 12) {
			return nil, r.fail()
		}
		v.Events = make([]*Event, n)
		for i := range v.Events {
			v.Events[i] = r.event()
		}
		m = v
	case TypeNack:
		v := &Nack{Pubend: vtime.PubendID(r.u32())}
		n := int(r.u32())
		if !r.checkCount(n, 16) {
			return nil, r.fail()
		}
		v.Spans = make([]tick.Span, n)
		for i := range v.Spans {
			v.Spans[i] = tick.Span{
				Start: vtime.Timestamp(r.u64()),
				End:   vtime.Timestamp(r.u64()),
			}
		}
		m = v
	case TypeRelease:
		m = &Release{
			Pubend:          vtime.PubendID(r.u32()),
			Released:        vtime.Timestamp(r.u64()),
			LatestDelivered: vtime.Timestamp(r.u64()),
		}
	case TypePublish:
		m = &Publish{
			PubendHint: vtime.PubendID(r.u32()),
			Token:      r.u64(),
			Attrs:      r.attrs(),
			Payload:    r.bytes(),
		}
	case TypePublishAck:
		m = &PublishAck{
			Token:     r.u64(),
			Pubend:    vtime.PubendID(r.u32()),
			Timestamp: vtime.Timestamp(r.u64()),
		}
	case TypeSubscribe:
		m = &Subscribe{
			Subscriber: vtime.SubscriberID(r.u32()),
			Filter:     r.str(),
			CT:         r.ct(),
			Resume:     r.u8() == 1,
			Credits:    r.u32(),
		}
	case TypeSubscribeAck:
		m = &SubscribeAck{
			Subscriber: vtime.SubscriberID(r.u32()),
			CT:         r.ct(),
			Err:        r.str(),
		}
	case TypeDeliver:
		v := &Deliver{Subscriber: vtime.SubscriberID(r.u32())}
		n := int(r.u32())
		if !r.checkCount(n, 13) {
			return nil, r.fail()
		}
		v.Deliveries = make([]Delivery, n)
		for i := range v.Deliveries {
			d := Delivery{
				Kind:      DeliverKind(r.u8()),
				Pubend:    vtime.PubendID(r.u32()),
				Timestamp: vtime.Timestamp(r.u64()),
			}
			if d.Kind == DeliverEvent {
				d.Event = r.event()
			}
			v.Deliveries[i] = d
		}
		m = v
	case TypeAck:
		m = &Ack{Subscriber: vtime.SubscriberID(r.u32()), CT: r.ct()}
	case TypeCredit:
		m = &Credit{Subscriber: vtime.SubscriberID(r.u32()), Credits: r.u32()}
	case TypeDetach:
		m = &Detach{Subscriber: vtime.SubscriberID(r.u32())}
	case TypeHello:
		m = &Hello{
			Role:  LinkRole(r.u8()),
			Name:  r.str(),
			Info:  r.u8() == 1,
			Root:  r.str(),
			Epoch: r.u64(),
			Depth: r.u32(),
		}
	case TypeSubUpdate:
		m = &SubUpdate{
			Subscriber: vtime.SubscriberID(r.u32()),
			Filter:     r.str(),
			Remove:     r.u8() == 1,
		}
	case TypeUnsubscribe:
		m = &Unsubscribe{Subscriber: vtime.SubscriberID(r.u32())}
	case TypeLeave:
		m = &Leave{Name: r.str()}
	case TypeSubSync:
		m = &SubSync{Token: r.u64()}
	default:
		return nil, fmt.Errorf("message: unknown type %d", buf[0])
	}
	if r.err != nil {
		return nil, r.err
	}
	return m, nil
}

func appendRange(buf []byte, r tick.Range) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.Start))
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.End))
	return append(buf, byte(r.Kind))
}

func appendEvent(buf []byte, e *Event) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(e.Pubend))
	buf = binary.BigEndian.AppendUint64(buf, uint64(e.Timestamp))
	buf = appendAttrs(buf, e.Attrs)
	return appendBytes(buf, e.Payload)
}

// AppendEvent exposes the event encoding for the pubend's persistent log.
func AppendEvent(buf []byte, e *Event) []byte { return appendEvent(buf, e) }

// DecodeEvent parses one event encoded by AppendEvent, returning the event
// and bytes consumed.
func DecodeEvent(buf []byte) (*Event, int, error) {
	r := &reader{buf: buf}
	e := r.event()
	if r.err != nil {
		return nil, 0, r.err
	}
	return e, r.off, nil
}

func appendString(buf []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func appendBytes(buf []byte, b []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

func appendAttrs(buf []byte, attrs filter.Attributes) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(attrs)))
	// Deterministic order is not required on the wire; map order is fine.
	for name, v := range attrs {
		buf = appendString(buf, name)
		buf = append(buf, byte(v.Kind()))
		switch v.Kind() {
		case filter.KindString:
			buf = appendString(buf, v.Str())
		case filter.KindInt:
			buf = binary.BigEndian.AppendUint64(buf, uint64(v.IntVal()))
		case filter.KindFloat:
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v.FloatVal()))
		case filter.KindBool:
			if v.BoolVal() {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	return buf
}

// reader is a cursor over a message body that records the first error and
// short-circuits subsequent reads, so decode logic stays linear.
type reader struct {
	buf []byte
	off int
	err error
	// ref, when non-nil, is the pooled buffer backing buf: bytes() aliases
	// sub-slices of it instead of copying, and decoded events carry it for
	// retain/release (DecodeShared).
	ref *Ref
}

func (r *reader) fail() error {
	if r.err == nil {
		r.err = ErrTruncated
	}
	return r.err
}

func (r *reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.buf) {
		r.err = ErrTruncated
		return false
	}
	return true
}

// checkCount guards slice pre-allocation against hostile counts: each
// element needs at least elemSize bytes, so a count implying more bytes
// than remain is corrupt.
func (r *reader) checkCount(n, elemSize int) bool {
	if r.err != nil {
		return false
	}
	if n < 0 || n*elemSize > len(r.buf)-r.off {
		r.err = ErrTruncated
		return false
	}
	return true
}

func (r *reader) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *reader) str() string {
	n := int(r.u16())
	if !r.need(n) {
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

func (r *reader) bytes() []byte {
	n := int(r.u32())
	if !r.need(n) {
		return nil
	}
	if r.ref != nil {
		// Zero-copy: alias the frame buffer. The three-index slice pins
		// capacity so an append by a holder can never scribble past the
		// payload into neighboring frame bytes.
		b := r.buf[r.off : r.off+n : r.off+n]
		r.off += n
		return b
	}
	b := make([]byte, n)
	copy(b, r.buf[r.off:r.off+n])
	r.off += n
	return b
}

func (r *reader) tickRange() tick.Range {
	return tick.Range{
		Start: vtime.Timestamp(r.u64()),
		End:   vtime.Timestamp(r.u64()),
		Kind:  tick.Kind(r.u8()),
	}
}

func (r *reader) attrs() filter.Attributes {
	n := int(r.u16())
	if !r.checkCount(n, 4) {
		return nil
	}
	attrs := make(filter.Attributes, n)
	for i := 0; i < n; i++ {
		name := r.str()
		kind := filter.ValueKind(r.u8())
		switch kind {
		case filter.KindString:
			attrs[name] = filter.String(r.str())
		case filter.KindInt:
			attrs[name] = filter.Int(int64(r.u64()))
		case filter.KindFloat:
			attrs[name] = filter.Float(math.Float64frombits(r.u64()))
		case filter.KindBool:
			attrs[name] = filter.Bool(r.u8() == 1)
		default:
			if r.err == nil {
				r.err = fmt.Errorf("message: bad attribute kind %d", kind)
			}
			return nil
		}
	}
	return attrs
}

func (r *reader) event() *Event {
	return &Event{
		Pubend:    vtime.PubendID(r.u32()),
		Timestamp: vtime.Timestamp(r.u64()),
		Attrs:     r.attrs(),
		Payload:   r.bytes(),
		ref:       r.ref,
	}
}

func (r *reader) ct() *vtime.CheckpointToken {
	if r.err != nil {
		return vtime.NewCheckpointToken()
	}
	ct, n, err := vtime.DecodeCheckpointToken(r.buf[r.off:])
	if err != nil {
		r.err = err
		return vtime.NewCheckpointToken()
	}
	r.off += n
	return ct
}
