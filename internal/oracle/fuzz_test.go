package oracle

import (
	"bytes"
	"testing"
)

// fuzzSeedLabel is a small but representative label: multiple entries,
// delta-coded node keys (including a backwards delta), empty and non-empty
// portal lists.
func fuzzSeedLabel() *Label {
	return &Label{Entries: []Entry{
		{Key: Key{Node: 4, Phase: 0, Path: 1}, Portals: []Portal{{Pos: 0.5, Dist: 1.25}, {Pos: 2, Dist: 3.5}}},
		{Key: Key{Node: 2, Phase: 1, Path: 0}, Portals: []Portal{{Pos: 0, Dist: 0}}},
		{Key: Key{Node: 9, Phase: 3, Path: 2}},
	}}
}

// FuzzDecodeLabel feeds arbitrary bytes to DecodeLabel. Inputs that parse
// must reach an Encode/Decode fixed point (the first re-encode may
// canonicalize non-minimal varints; after that the bytes must be stable).
func FuzzDecodeLabel(f *testing.F) {
	f.Add(fuzzSeedLabel().Encode())
	f.Add((&Label{}).Encode())
	buf := fuzzSeedLabel().Encode()
	f.Add(buf[:len(buf)/2]) // truncated
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}) // absurd entry count

	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := DecodeLabel(data)
		if err != nil {
			return
		}
		canon := l.Encode()
		l2, err := DecodeLabel(canon)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		if !bytes.Equal(canon, l2.Encode()) {
			t.Fatal("Encode/Decode is not a fixed point")
		}
	})
}
