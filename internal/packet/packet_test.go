package packet

import (
	"reflect"
	"strings"
	"testing"

	"ccatscale/internal/units"
)

func TestWireBytes(t *testing.T) {
	data := Packet{Len: 1448}
	if got := data.WireBytes(); got != 1448+HeaderBytes {
		t.Fatalf("data WireBytes = %v, want %v", got, 1448+HeaderBytes)
	}
	// Full-MSS frame should be the classic ~1518B Ethernet frame.
	if data.WireBytes() != 1518 {
		t.Fatalf("full-MSS frame = %v, want 1518", data.WireBytes())
	}
	ack := Packet{Ack: true}
	if got := ack.WireBytes(); got != AckBytes {
		t.Fatalf("ack WireBytes = %v, want %v", got, AckBytes)
	}
}

func TestEnd(t *testing.T) {
	p := Packet{Seq: 1000, Len: 1448}
	if p.End() != 2448 {
		t.Fatalf("End = %d, want 2448", p.End())
	}
}

func TestSackBlockLen(t *testing.T) {
	b := SackBlock{Start: 10, End: 25}
	if b.Len() != 15 {
		t.Fatalf("Len = %d, want 15", b.Len())
	}
}

func TestStringForms(t *testing.T) {
	d := Packet{Flow: 3, Seq: 0, Len: 1448}
	if got := d.String(); !strings.Contains(got, "DATA") || !strings.Contains(got, "flow 3") {
		t.Errorf("data String = %q", got)
	}
	d.Retrans = true
	if got := d.String(); !strings.Contains(got, "RTX") {
		t.Errorf("retransmission String = %q", got)
	}
	a := Packet{Flow: 1, Ack: true, CumAck: 2896, NumSack: 1}
	a.Sack[0] = SackBlock{Start: 4344, End: 5792}
	got := a.String()
	if !strings.Contains(got, "ACK 2896") || !strings.Contains(got, "sack[4344,5792)") {
		t.Errorf("ack String = %q", got)
	}
}

func TestPacketValueSizeStaysSmall(t *testing.T) {
	// Every place a packet waits outside a queue holds it by value: the
	// sender's slot, a port's two tx slots, the propagation lanes' rings
	// and the jitter stage's pooled deliveries (a queue ring holds a
	// data segment's fields only, netem's segment). The limit is the size
	// itself: the benchmark ladder's packet.struct_bytes rung reads it,
	// so a field that grows the struct must fail here and not as a
	// regression on core-reno-2000.
	//
	// 136 is the fields' 129 bytes rounded to the 8-byte alignment, which
	// holds only while they are declared widest first (see Packet): the
	// same fields grouped by topic pad out to 160.
	var p Packet
	const maxBytes = 136
	if size := int(unsafeSizeof(p)); size > maxBytes {
		t.Fatalf("Packet value is %d bytes, want ≤ %d (the ladder's packet.struct_bytes)", size, maxBytes)
	}
}

func unsafeSizeof(p Packet) uintptr {
	return sizeOf(&p)
}

// TestPacketIsPointerFree: the slots that hold packets by value leave a
// vacated slot as it is rather than storing zero bytes over it, which is
// only sound while no field can keep anything alive.
func TestPacketIsPointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: a stale slot would keep what it references alive, so every slot "+
				"that holds a packet by value must start clearing what it vacates: tcp.Sender's packet "+
				"slot, Port's two tx slots and its Send stage, the jitter stage's pooled deliveries, "+
				"and sim.Lane's ring (queue rings hold netem's segment, which carries no such field)",
				path, typ.Kind())
		}
	}
	walk("Packet", reflect.TypeOf(Packet{}))
}

func TestHeaderAccounting(t *testing.T) {
	// The harness charges wire bytes against link capacity; sanity-check
	// goodput fraction for full-MSS segments: 1448/1518 ≈ 95.4%.
	frac := float64(units.MSS) / float64(units.MSS+HeaderBytes)
	if frac < 0.95 || frac > 0.96 {
		t.Fatalf("goodput fraction = %v, want ≈0.954", frac)
	}
}
