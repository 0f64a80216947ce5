package bgp

import (
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

// Property: path attributes round-trip through the MRT-facing codec.
func TestQuickPathAttrsRoundTrip(t *testing.T) {
	f := func(origin uint8, asns []uint32, nh4 [4]byte, useV6 bool, nh16 [16]byte) bool {
		if len(asns) == 0 {
			asns = []uint32{1}
		}
		if len(asns) > 128 {
			asns = asns[:128]
		}
		a := PathAttrs{Origin: origin % 3, ASPath: []Segment{{Type: SegmentSequence, ASNs: asns}}}
		if useV6 {
			addr := netip.AddrFrom16(nh16)
			if addr.Is4In6() {
				return true // 4-in-6 is rejected by design
			}
			a.NextHop = addr
		} else {
			a.NextHop = netip.AddrFrom4(nh4)
		}
		wire, err := EncodePathAttrs(a)
		if err != nil {
			return false
		}
		got, err := ParsePathAttrs(wire)
		if err != nil {
			return false
		}
		return got.Origin == a.Origin && reflect.DeepEqual(got.ASPath, a.ASPath) && got.NextHop == a.NextHop
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
