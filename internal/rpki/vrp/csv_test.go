package vrp

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"ripki/internal/netutil"
)

func TestCSVRoundTrip(t *testing.T) {
	s := NewSet()
	mustAdd(t, s, "193.0.6.0/24", 24, 3333)
	mustAdd(t, s, "10.0.0.0/8", 16, 64500)
	mustAdd(t, s, "2001:db8::/32", 48, 64501)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("Len = %d", got.Len())
	}
	if st := got.Validate(netutil.MustPrefix("193.0.6.0/24"), 3333); st != Valid {
		t.Errorf("reloaded set: %v", st)
	}
}

func TestReadCSVFlexible(t *testing.T) {
	in := "# comment\n193.0.6.0/24,24,3333\n10.0.0.0/8,16,AS64500\n\n"
	s, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// badCSV holds one input per ReadCSV rejection.
var badCSV = []string{
	"notaprefix,24,1",
	"10.0.0.0/8,x,1",
	"10.0.0.0/8,16,ASx",
	"10.0.0.0/8,16",
	"10.0.0.0/8,4,1", // maxLength < bits
}

func TestReadCSVRejectsBadInput(t *testing.T) {
	for _, in := range badCSV {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("ReadCSV(%q) accepted bad input", in)
		}
	}
}

// FuzzReadCSV feeds arbitrary text to ReadCSV, the parser for VRP
// exports from other relying parties. Property: whatever it accepts
// writes back through WriteCSV and reads back to the same VRPs. Run
// with `go test -fuzz FuzzReadCSV`; the seed corpus keeps it meaningful
// as a plain test.
func FuzzReadCSV(f *testing.F) {
	f.Add("prefix,maxLength,ASN\n193.0.6.0/24,24,AS3333\n10.0.0.0/8,16,AS64500\n2001:db8::/32,48,AS64501\n")
	f.Add("# comment\n193.0.6.0/24,24,3333\n10.0.0.0/8,16,AS64500\n\n")
	f.Add("10.9.8.7/8, 8 , as1\n10.0.0.0/8,8,AS1\n")
	for _, in := range badCSV {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := s.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("WriteCSV output does not read back: %v\n%s", err, buf.String())
		}
		if !slices.Equal(back.All(), s.All()) {
			t.Fatalf("round trip changed the VRPs:\n got %v\nwant %v", back.All(), s.All())
		}
	})
}
