package netem

import (
	"reflect"
	"strings"
	"testing"

	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// ackOnlyFields are the packet.Packet fields a queue slot has no room
// for: Push must refuse a packet that sets any of them.
var ackOnlyFields = map[string]bool{
	"Ack": true, "CumAck": true, "AckedSentAt": true, "RateSentAt": true,
	"Sack": true, "NumSack": true, "ECE": true, "AckedRetrans": true,
}

// testQueues returns one queue of each built-in discipline, neither
// marking.
func testQueues() map[string]Queue {
	eng := sim.NewEngine()
	return map[string]Queue{
		"DropTailQueue": NewDropTailQueue(units.MB),
		"CoDelQueue":    NewCoDelQueue(eng.Now, units.MB, nil),
	}
}

// leaves calls visit with every number and bool inside v, in
// declaration order.
func leaves(v reflect.Value, visit func(leaf reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			leaves(v.Field(i), visit)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			leaves(v.Index(i), visit)
		}
	default:
		visit(v)
	}
}

// setNonZero sets the leaf v to n, or to true for a bool.
func setNonZero(t *testing.T, v reflect.Value, n int64) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int:
		v.SetInt(n)
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("no non-zero value for a %s", v.Kind())
	}
}

// pushPanics reports whether q.Push(p) panicked, and the message.
func pushPanics(q Queue, p packet.Packet) (msg string, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			msg, panicked = r.(string), true
		}
	}()
	q.Push(&p)
	return "", false
}

// TestSegmentCoversEveryPacketField sets each number and bool of a
// packet.Packet in turn (each SACK block bound too) on a data segment
// and pushes it through both queues: it is either carried, popping out
// equal, or in an ACK-only field, and Push panics on it. A field added
// to Packet later fails here rather than being zeroed, or left stale,
// in every queue it crosses.
func TestSegmentCoversEveryPacketField(t *testing.T) {
	typ := reflect.TypeOf(packet.Packet{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		n := 0
		leaves(reflect.ValueOf(&packet.Packet{}).Elem().Field(i), func(reflect.Value) { n++ })
		for k := 0; k < n; k++ {
			for qname, q := range testQueues() {
				p := dataPkt(3, 1448, 1448)
				j := 0
				leaves(reflect.ValueOf(&p).Elem().Field(i), func(leaf reflect.Value) {
					if j == k {
						setNonZero(t, leaf, 7)
					}
					j++
				})
				if ackOnlyFields[name] {
					if _, panicked := pushPanics(q, p); !panicked {
						t.Errorf("%s.Push accepted a packet with ACK-only field %s (leaf %d) set", qname, name, k)
					}
					continue
				}
				if !q.Push(&p) {
					t.Fatalf("%s.Push rejected a data segment with %s set", qname, name)
				}
				// Pop writes every field: a tx slot that last held some
				// other packet ends up holding exactly this one.
				var got packet.Packet
				leaves(reflect.ValueOf(&got).Elem(), func(leaf reflect.Value) { setNonZero(t, leaf, -1) })
				ok := q.Pop(&got)
				if !ok || got != p {
					t.Errorf("%s: a data segment with %s set popped as %+v, pushed %+v", qname, name, got, p)
				}
			}
		}
	}
}

// TestQueuePushOfAckPanics: a queue holds data segments only, and the
// guard fires before the capacity check, so a full queue refuses an ACK
// the same way.
func TestQueuePushOfAckPanics(t *testing.T) {
	for qname, q := range testQueues() {
		ack := packet.Packet{Flow: 1, Ack: true, CumAck: 2896}
		msg, panicked := pushPanics(q, ack)
		if !panicked || !strings.Contains(msg, "data segments only") {
			t.Errorf("%s.Push of an ACK: panicked %v with %q", qname, panicked, msg)
		}
		if q.Len() != 0 || q.Bytes() != 0 {
			t.Errorf("%s holds %d packets / %d bytes after the refused ACK", qname, q.Len(), q.Bytes())
		}
	}
	full := NewDropTailQueue(1518)
	push(full, dataPkt(0, 0, 1448))
	if _, panicked := pushPanics(full, packet.Packet{Ack: true}); !panicked {
		t.Error("a full DropTailQueue dropped an ACK instead of refusing it")
	}
}

// TestSegmentIsSmallAndPointerFree: a ring slot is the 56 bytes of a
// data segment, and vacated slots are never cleared, which is sound
// only while nothing in one can keep memory alive.
func TestSegmentIsSmallAndPointerFree(t *testing.T) {
	if QueueSlotBytes > 56 {
		t.Errorf("segment is %d bytes, want ≤ 56", QueueSlotBytes)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(segment{}), reflect.TypeOf(codelEntry{})} {
		for i := 0; i < typ.NumField(); i++ {
			switch k := typ.Field(i).Type.Kind(); k {
			case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int,
				reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Bool:
			case reflect.Struct:
				if typ.Field(i).Type != reflect.TypeOf(segment{}) {
					t.Errorf("%s.%s is a struct other than segment", typ.Name(), typ.Field(i).Name)
				}
			default:
				t.Errorf("%s.%s is a %s: a stale ring slot could keep memory alive", typ.Name(), typ.Field(i).Name, k)
			}
		}
	}
}

// TestQueueSlotBytesIsTheRingElement ties the estimator's slot price to
// the rings: a drop-tail slot is exactly QueueSlotBytes, and a CoDel
// slot is that segment plus its 8-byte enqueue stamp.
func TestQueueSlotBytesIsTheRingElement(t *testing.T) {
	dt := reflect.TypeOf(DropTailQueue{}.ring).Elem()
	if dt != reflect.TypeOf(segment{}) || int64(dt.Size()) != QueueSlotBytes {
		t.Errorf("DropTailQueue ring element is %s (%d B), QueueSlotBytes prices a segment at %d B",
			dt, dt.Size(), QueueSlotBytes)
	}
	cd := reflect.TypeOf(CoDelQueue{}.ring).Elem()
	if cd.Field(0).Type != reflect.TypeOf(segment{}) ||
		int64(cd.Size()) != QueueSlotBytes+int64(reflect.TypeOf(sim.Time(0)).Size()) {
		t.Errorf("CoDelQueue ring element is %s (%d B), want a segment of %d B and its enqueue stamp",
			cd, cd.Size(), QueueSlotBytes)
	}
}
