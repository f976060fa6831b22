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

// TestQueuePushOfAckPanics: a queue holds data segments only, of at
// most 16 bits of Len, and the guard fires before the capacity check,
// so a full queue refuses an ACK the same way.
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
		if _, panicked := pushPanics(q, dataPkt(0, 0, 1<<16)); !panicked {
			t.Errorf("%s.Push accepted a segment whose Len does not fit 16 bits", qname)
		}
	}
	full := NewDropTailQueue(1518)
	push(full, dataPkt(0, 0, 1448))
	if _, panicked := pushPanics(full, packet.Packet{Ack: true}); !panicked {
		t.Error("a full DropTailQueue dropped an ACK instead of refusing it")
	}
}

// TestSegmentIsSmallAndPointerFree: a ring slot is the 48 bytes of a
// data segment, and vacated slots (queue rings and reverse lanes alike)
// are never cleared, which is sound only while nothing in one can keep
// memory alive.
func TestSegmentIsSmallAndPointerFree(t *testing.T) {
	if QueueSlotBytes > 48 {
		t.Errorf("segment is %d bytes, want ≤ 48", QueueSlotBytes)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(segment{}), reflect.TypeOf(codelEntry{}), reflect.TypeOf(ackRecord{})} {
		leafTypes(typ, func(name string, k reflect.Kind) {
			switch k {
			case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int,
				reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Bool:
			default:
				t.Errorf("%s.%s is a %s: a stale ring slot could keep memory alive", typ.Name(), name, k)
			}
		})
	}
}

// leafTypes calls visit with the name and kind of every field inside
// typ that is neither a struct nor an array.
func leafTypes(typ reflect.Type, visit func(name string, k reflect.Kind)) {
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		ft := f.Type
		for ft.Kind() == reflect.Array {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct {
			leafTypes(ft, func(name string, k reflect.Kind) { visit(f.Name+"."+name, k) })
			continue
		}
		visit(f.Name, ft.Kind())
	}
}

// TestPacketBoolsAreOneRun pins the layout the flag byte of segment
// and ackRecord rests on: Packet's eight one-byte flags, Ack through
// AppLimited, lie in that order in eight consecutive bytes, the run
// boolRun views and flagRuns fills (bit i for the i-th).
func TestPacketBoolsAreOneRun(t *testing.T) {
	var p packet.Packet
	fields := []*bool{&p.Ack, &p.Retrans, &p.ECT, &p.CE, &p.ECE, &p.CWR, &p.AckedRetrans, &p.AppLimited}
	flags := []uint8{flagAck, flagRetrans, flagECT, flagCE, flagECE, flagCWR, flagAckedRetrans, flagAppLimited}
	run := boolRun(&p)
	for i, f := range fields {
		if f != &run[i] {
			t.Fatalf("bool %d of the run is not byte %d after Packet.Ack", i, i)
		}
		*run = flagRuns[flags[i]]
		for j, g := range fields {
			if *g != (j == i) {
				t.Errorf("flagRuns[%#x] sets bool %d to %v", flags[i], j, *g)
			}
		}
	}
}

// ackFields is an ACK with every field a receiver sets on one set, none
// of them to its zero.
func ackFields() packet.Packet {
	return packet.Packet{
		CumAck: 2896, AckedSentAt: 5, Delivered: 1448, DeliveredAt: 6, FirstSentAt: 4, RateSentAt: 5,
		Sack:    [packet.MaxSackBlocks]packet.SackBlock{{Start: 4344, End: 5792}, {Start: 7240, End: 8688}, {Start: 10136, End: 11584}},
		NumSack: 3, Ack: true, ECE: true, AckedRetrans: true, AppLimited: true,
	}
}

// dataOnlyFields are the packet.Packet fields a reverse-lane entry has
// no room for: SendAck must refuse a packet that sets any of them.
var dataOnlyFields = map[string]bool{
	"Seq": true, "SentAt": true, "Len": true, "Retrans": true, "ECT": true, "CE": true, "CWR": true,
}

// sendAckPanics reports whether topo.SendAck(p) panicked, and the
// message.
func sendAckPanics(topo *Topology, p packet.Packet) (msg string, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			msg, panicked = r.(string), true
		}
	}()
	topo.SendAck(p)
	return "", false
}

// TestAckRecordCoversEveryAckField is TestSegmentCoversEveryPacketField
// for the reverse lanes: each number and bool of a packet.Packet is set
// in turn on an ACK that SendAck returns to the sender, and it is either
// carried, reaching the sender sink equal, or in a data-only field, and
// SendAck panics on it. The topology's ACK slot holds garbage before
// each delivery, so a field unpack does not write fails too.
func TestAckRecordCoversEveryAckField(t *testing.T) {
	eng := sim.NewEngine()
	rtts := make([]sim.Time, 8) // Flow is set to 7 in its turn
	for i := range rtts {
		rtts[i] = 10 * sim.Millisecond
	}
	topo := NewDumbbell(eng, DumbbellConfig{Rate: 10 * units.MbitPerSec, Buffer: 64 * units.KB, RTT: rtts})
	var got []packet.Packet
	topo.SetRefEndpoints(func(*packet.Packet) {}, func(p *packet.Packet) { got = append(got, *p) })
	typ := reflect.TypeOf(packet.Packet{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		n := 0
		leaves(reflect.ValueOf(&packet.Packet{}).Elem().Field(i), func(reflect.Value) { n++ })
		for k := 0; k < n; k++ {
			for _, base := range []packet.Packet{{Ack: true}, ackFields()} {
				p := base
				j := 0
				leaves(reflect.ValueOf(&p).Elem().Field(i), func(leaf reflect.Value) {
					if j == k {
						setNonZero(t, leaf, 7)
					}
					j++
				})
				if dataOnlyFields[name] {
					if _, panicked := sendAckPanics(topo, p); !panicked {
						t.Errorf("SendAck accepted an ACK with data-only field %s (leaf %d) set", name, k)
					}
					continue
				}
				leaves(reflect.ValueOf(&topo.ack).Elem(), func(leaf reflect.Value) { setNonZero(t, leaf, -1) })
				got = got[:0]
				topo.SendAck(p)
				eng.Run(eng.Now() + sim.Second)
				if len(got) != 1 || got[0] != p {
					t.Errorf("an ACK with %s set reached the sender as %+v, sent %+v", name, got, p)
				}
			}
		}
	}
}

// TestSendAckOfDataPanics: a reverse lane holds ACKs only, and the guard
// fires before anything is scheduled.
func TestSendAckOfDataPanics(t *testing.T) {
	eng := sim.NewEngine()
	topo := NewDumbbell(eng, DumbbellConfig{Rate: 10 * units.MbitPerSec, Buffer: 64 * units.KB, RTT: []sim.Time{10 * sim.Millisecond}})
	delivered := 0
	topo.SetRefEndpoints(func(*packet.Packet) {}, func(*packet.Packet) { delivered++ })
	msg, panicked := sendAckPanics(topo, dataPkt(0, 1448, 1448))
	if !panicked || !strings.Contains(msg, "ACKs only") {
		t.Errorf("SendAck of a data segment: panicked %v with %q", panicked, msg)
	}
	eng.Run(sim.Second)
	if delivered != 0 {
		t.Errorf("the refused data segment reached the sender %d times", delivered)
	}
}

// TestPaperScaleFootprint pins the sizes the CoreScale heap rests on: the
// 375 MB bottleneck ring holds one slot per full-size frame plus one,
// of a 48-byte segment, and a reverse-lane entry (its firing key and
// the ACK record) stays within 120 bytes.
func TestPaperScaleFootprint(t *testing.T) {
	const buffer = 375 * units.MB
	if got := RingSlotsFor(buffer); got != 247_036 {
		t.Errorf("RingSlotsFor(375 MB) = %d, want 247 036", got)
	}
	if got := len(NewDropTailQueue(buffer).ring); got != 247_036 {
		t.Errorf("a 375 MB drop-tail queue rings %d slots, want 247 036", got)
	}
	if QueueSlotBytes != 48 {
		t.Errorf("QueueSlotBytes = %d, want 48", QueueSlotBytes)
	}
	ring, ok := reflect.TypeOf(sim.Lane[ackRecord]{}).FieldByName("ring")
	if !ok {
		t.Fatal("sim.Lane has no ring field")
	}
	if entry := ring.Type.Elem(); entry.Size() > 120 {
		t.Errorf("a reverse-lane entry (%s) is %d bytes, want ≤ 120", entry, entry.Size())
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
