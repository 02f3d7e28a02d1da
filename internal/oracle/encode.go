package oracle

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Encode serializes the label compactly: varint-delta keys and raw float64
// portal fields. The byte length measures the label size in bits for the
// Theorem 2 space accounting (experiment E5).
func (l *Label) Encode() []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(l.Entries)))
	prevNode := int64(0)
	for _, e := range l.Entries {
		buf = binary.AppendVarint(buf, int64(e.Key.Node)-prevNode)
		prevNode = int64(e.Key.Node)
		buf = binary.AppendUvarint(buf, uint64(e.Key.Phase))
		buf = binary.AppendUvarint(buf, uint64(e.Key.Path))
		buf = binary.AppendUvarint(buf, uint64(len(e.Portals)))
		for _, p := range e.Portals {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Pos))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Dist))
		}
	}
	return buf
}

// DecodeLabel parses a label produced by Encode.
func DecodeLabel(buf []byte) (*Label, error) {
	l := &Label{}
	ne, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, fmt.Errorf("oracle: truncated label header")
	}
	buf = buf[n:]
	// Each entry takes at least 4 bytes (node, phase, path, portal count).
	if ne > uint64(len(buf))/4 {
		return nil, fmt.Errorf("oracle: header claims %d entries in %d bytes", ne, len(buf))
	}
	prevNode := int64(0)
	for i := uint64(0); i < ne; i++ {
		dn, n := binary.Varint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("oracle: truncated entry %d node", i)
		}
		buf = buf[n:]
		node := prevNode + dn
		prevNode = node
		phase, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("oracle: truncated entry %d phase", i)
		}
		buf = buf[n:]
		path, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("oracle: truncated entry %d path", i)
		}
		buf = buf[n:]
		np, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("oracle: truncated entry %d portal count", i)
		}
		buf = buf[n:]
		// Each portal takes exactly 16 bytes; reject absurd counts before
		// allocating.
		if np > uint64(len(buf))/16 {
			return nil, fmt.Errorf("oracle: entry %d claims %d portals in %d bytes", i, np, len(buf))
		}
		e := Entry{Key: Key{Node: int32(node), Phase: int16(phase), Path: int16(path)}}
		if np > 0 {
			e.Portals = make([]Portal, 0, np)
		}
		for j := uint64(0); j < np; j++ {
			if len(buf) < 16 {
				return nil, fmt.Errorf("oracle: truncated portal %d/%d", i, j)
			}
			pos := math.Float64frombits(binary.LittleEndian.Uint64(buf))
			dist := math.Float64frombits(binary.LittleEndian.Uint64(buf[8:]))
			buf = buf[16:]
			e.Portals = append(e.Portals, Portal{Pos: pos, Dist: dist})
		}
		l.Entries = append(l.Entries, e)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("oracle: %d trailing bytes", len(buf))
	}
	return l, nil
}

// Bits returns the serialized size of the label in bits.
func (l *Label) Bits() int { return 8 * len(l.Encode()) }
