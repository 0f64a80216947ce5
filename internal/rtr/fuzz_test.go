package rtr

import (
	"reflect"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to Decode, the parser every peer's
// PDUs go through. Property: Decode never panics, and whatever it
// accepts serialises through SerializeTo and decodes back equal. Run
// with `go test -fuzz FuzzDecode`; the seed corpus keeps it meaningful
// as a plain test.
func FuzzDecode(f *testing.F) {
	for _, p := range samplePDUs() {
		wire := p.SerializeTo(nil)
		f.Add(wire)
		f.Add(wire[:len(wire)-1])
	}
	for _, wire := range errorReportWrapVectors() {
		f.Add(wire)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pdu, n, err := Decode(data)
		if err != nil {
			return
		}
		if n < headerLen || n > len(data) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(data))
		}
		wire := pdu.SerializeTo(nil)
		back, m, err := Decode(wire)
		if err != nil {
			t.Fatalf("re-serialised %T does not decode: %v\n%x", pdu, err, wire)
		}
		if m != len(wire) {
			t.Fatalf("re-serialised %T: consumed %d of %d bytes", pdu, m, len(wire))
		}
		if !reflect.DeepEqual(back, pdu) {
			t.Fatalf("round trip changed the PDU:\n got %#v\nwant %#v", back, pdu)
		}
	})
}
