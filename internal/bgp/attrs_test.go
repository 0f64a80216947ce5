package bgp

import (
	"encoding/binary"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"ripki/internal/netutil"
)

// mpAttr builds an MP_REACH (with next hop) or MP_UNREACH (nh invalid)
// attribute for IPv6 unicast carrying the given NLRI.
func mpAttr(nh netip.Addr, nlri ...string) []byte {
	b := binary.BigEndian.AppendUint16(nil, AFIIPv6)
	b = append(b, SAFIUnicast)
	typ, flags := uint8(AttrMPUnreachNLRI), uint8(flagOptional)
	if nh.IsValid() {
		typ = AttrMPReachNLRI
		raw := nh.As16()
		b = append(b, 16)
		b = append(b, raw[:]...)
		b = append(b, 0) // reserved
	}
	for _, s := range nlri {
		p := netutil.MustPrefix(s)
		b = append(b, byte(p.Bits()))
		b = append(b, p.Addr().AsSlice()[:(p.Bits()+7)/8]...)
	}
	return appendAttr(nil, flags, typ, b)
}

// updateAttrs is the attribute block of a dual-stack UPDATE: ORIGIN,
// AS_PATH, NEXT_HOP, an MP_REACH with two IPv6 routes and an
// MP_UNREACH with one.
func updateAttrs(t testing.TB) []byte {
	t.Helper()
	b, err := EncodePathAttrs(PathAttrs{
		Origin:  OriginIGP,
		ASPath:  []Segment{{Type: SegmentSequence, ASNs: []uint32{64500, 3333, 196615}}},
		NextHop: netutil.MustAddr("10.0.0.2"),
	})
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, mpAttr(netutil.MustAddr("2001:db8::1"), "2001:db8:1000::/36", "2a00::/12")...)
	return append(b, mpAttr(netip.Addr{}, "2001:db8:dead::/48")...)
}

func TestOriginAS(t *testing.T) {
	cases := []struct {
		path []Segment
		want uint32
		ok   bool
	}{
		{nil, 0, false},
		{[]Segment{{Type: SegmentSequence, ASNs: []uint32{1, 2, 3}}}, 3, true},
		{[]Segment{{Type: SegmentSequence, ASNs: []uint32{1}}, {Type: SegmentSequence, ASNs: []uint32{9}}}, 9, true},
		{[]Segment{{Type: SegmentSet, ASNs: []uint32{1, 2}}}, 0, false},
		{[]Segment{{Type: SegmentSequence, ASNs: nil}}, 0, false},
	}
	for i, c := range cases {
		got, ok := OriginAS(c.path)
		if got != c.want || ok != c.ok {
			t.Errorf("case %d: OriginAS = %d,%v want %d,%v", i, got, ok, c.want, c.ok)
		}
	}
}

// An AS_SET-terminated path survives the codec and has no origin.
func TestPathAttrsWithASSet(t *testing.T) {
	in := PathAttrs{
		Origin: OriginIncomplete,
		ASPath: []Segment{
			{Type: SegmentSequence, ASNs: []uint32{64500}},
			{Type: SegmentSet, ASNs: []uint32{3333, 3334}},
		},
		NextHop: netutil.MustAddr("10.0.0.2"),
	}
	wire, err := EncodePathAttrs(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParsePathAttrs(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("round trip: %+v, want %+v", got, in)
	}
	if _, ok := OriginAS(got.ASPath); ok {
		t.Error("OriginAS accepted an AS_SET-terminated path")
	}
}

// An UPDATE's attribute block parses; the MP_REACH next hop wins over
// NEXT_HOP and the MP NLRI is checked but not kept.
func TestParsePathAttrsUpdateBlock(t *testing.T) {
	got, err := ParsePathAttrs(updateAttrs(t))
	if err != nil {
		t.Fatal(err)
	}
	want := PathAttrs{
		Origin:  OriginIGP,
		ASPath:  []Segment{{Type: SegmentSequence, ASNs: []uint32{64500, 3333, 196615}}},
		NextHop: netutil.MustAddr("2001:db8::1"),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

func TestParsePathAttrsRejectsCorruption(t *testing.T) {
	wire := updateAttrs(t)
	for i := 1; i < len(wire); i++ {
		if _, err := ParsePathAttrs(wire[:i]); err == nil && !attrBoundary(wire, i) {
			t.Errorf("accepted truncation to %d bytes", i)
		}
	}
	nh := netutil.MustAddr("2001:db8::1")
	cases := []struct {
		name  string
		attrs []byte
		want  string
	}{
		{"origin length", appendAttr(nil, flagTransitive, AttrOrigin, []byte{0, 0}), "bad ORIGIN length"},
		{"segment type", appendAttr(nil, flagTransitive, AttrASPath, []byte{3, 0}), "unknown AS_PATH segment type 3"},
		{"segment overrun", appendAttr(nil, flagTransitive, AttrASPath, []byte{2, 2, 0, 0, 0, 1}), "AS_PATH segment overruns"},
		{"next hop length", appendAttr(nil, flagTransitive, AttrNextHop, []byte{10, 0, 0}), "bad NEXT_HOP length"},
		{"extended header", []byte{flagExtended, AttrASPath, 0}, "truncated extended attribute header"},
		{"mp reach afi", appendAttr(nil, flagOptional, AttrMPReachNLRI, []byte{0, 1, 1, 4, 10, 0, 0, 1, 0}), "unsupported AFI/SAFI 1/1"},
		{"mp reach next hop length", appendAttr(nil, flagOptional, AttrMPReachNLRI, []byte{0, 2, 1, 4, 10, 0, 0, 1, 0}), "next hop length 4 unsupported"},
		{"mp reach next hop overrun", appendAttr(nil, flagOptional, AttrMPReachNLRI, []byte{0, 2, 1, 16, 0}), "MP_REACH next hop overruns"},
		{"mp unreach short", appendAttr(nil, flagOptional, AttrMPUnreachNLRI, []byte{0, 2}), "MP_UNREACH too short"},
		{"nlri too long", mpWithRawNLRI(nh, 129), "prefix length 129 exceeds"},
		{"nlri truncated", mpWithRawNLRI(nh, 48, 0x20, 0x01), "truncated NLRI"},
		{"nlri host bits", mpWithRawNLRI(netip.Addr{}, 7, 0x2b), "host bits set"},
	}
	for _, c := range cases {
		_, err := ParsePathAttrs(c.attrs)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

// attrBoundary reports whether wire[:i] ends exactly between two
// attributes, where a shorter block is still well formed.
func attrBoundary(wire []byte, i int) bool {
	for off := 0; off < len(wire); {
		if off == i {
			return true
		}
		hdr, alen := 3, int(wire[off+2])
		if wire[off]&flagExtended != 0 {
			hdr, alen = 4, int(binary.BigEndian.Uint16(wire[off+2:]))
		}
		off += hdr + alen
	}
	return false
}

// mpWithRawNLRI is mpAttr with the NLRI bytes given verbatim, for
// malformed prefixes mpAttr cannot express.
func mpWithRawNLRI(nh netip.Addr, nlri ...byte) []byte {
	b := mpAttr(nh) // short enough for a 3-byte attribute header
	body := append(b[3:], nlri...)
	return appendAttr(nil, b[0], b[1], body)
}

// FuzzParsePathAttrs: ParsePathAttrs never panics, and whatever it
// accepts re-encodes through EncodePathAttrs to a block that parses
// back to the same PathAttrs.
func FuzzParsePathAttrs(f *testing.F) {
	f.Add(updateAttrs(f))
	for _, a := range []PathAttrs{
		{Origin: OriginIGP, ASPath: []Segment{{Type: SegmentSequence, ASNs: []uint32{64500, 3333}}}, NextHop: netutil.MustAddr("10.0.0.1")},
		{Origin: OriginIncomplete, ASPath: []Segment{{Type: SegmentSequence, ASNs: []uint32{64500}}, {Type: SegmentSet, ASNs: []uint32{3333, 3334}}}, NextHop: netutil.MustAddr("10.0.0.2")},
		{Origin: OriginEGP, ASPath: []Segment{{Type: SegmentSequence, ASNs: []uint32{196615}}}, NextHop: netutil.MustAddr("2001:db8::1")},
		{},
	} {
		b, err := EncodePathAttrs(a)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		a, err := ParsePathAttrs(b)
		if err != nil {
			return
		}
		wire, err := EncodePathAttrs(a)
		if err != nil {
			if len(b) > 65535 {
				return // an AS_PATH spread over many attributes may not fit one
			}
			t.Fatalf("re-encoding %+v: %v", a, err)
		}
		got, err := ParsePathAttrs(wire)
		if err != nil {
			t.Fatalf("re-parsing %+v: %v", a, err)
		}
		if got.Origin != a.Origin || got.NextHop != a.NextHop || !reflect.DeepEqual(got.ASPath, a.ASPath) {
			t.Fatalf("round trip changed the attributes:\n got %+v\nwant %+v", got, a)
		}
	})
}
