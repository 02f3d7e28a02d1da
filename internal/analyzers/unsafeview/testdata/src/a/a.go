// Package a exercises the unsafeview analyzer: unsafe.Slice views need
// dominating bounds and alignment validation, stay read-only, and may
// not outlive their backing buffer.
package a

import "unsafe"

const hostOK = true

type rec struct {
	a uint32
	b uint32
}

type img struct {
	buf  []byte
	recs []rec
	off  []int32
	lane []float64
}

func layoutTotal(n int) int { return 8 * n }

// checkLen is an in-package validator: its interprocedural summary
// records the len comparison on its parameter.
func checkLen(buf []byte, n int) bool {
	return len(buf) == layoutTotal(n)
}

// aligned8 performs the alignment probe for callers.
func aligned8(buf []byte) bool {
	return uintptr(unsafe.Pointer(&buf[0]))%8 == 0
}

// alignedSlab is an unsafe-using slice factory: its results (and any
// field they are stored into) are views.
func alignedSlab(n int) []float64 {
	if n == 0 {
		return nil
	}
	buf := make([]float64, n+7)
	off := 0
	for uintptr(unsafe.Pointer(&buf[off]))%64 != 0 {
		off++
	}
	return buf[off : off+n : off+n]
}

// clean: guard-style bounds check, then views inside the alignment
// branch, with the backing buffer retained alongside the views.
func decodeGood(buf []byte, n int) *img {
	if len(buf) != layoutTotal(n) {
		return nil
	}
	f := &img{}
	if hostOK && uintptr(unsafe.Pointer(&buf[0]))%8 == 0 {
		f.buf = buf
		f.recs = unsafe.Slice((*rec)(unsafe.Pointer(&buf[0])), n)
	}
	return f
}

// clean: validation through in-package helpers, seen via summaries.
func decodeHelpers(buf []byte, n int) *img {
	if !checkLen(buf, n) {
		return nil
	}
	if !aligned8(buf) {
		return nil
	}
	f := &img{}
	f.buf = buf
	f.recs = unsafe.Slice((*rec)(unsafe.Pointer(&buf[0])), n)
	return f
}

// missing bounds check: only alignment is proven.
func decodeNoBounds(buf []byte, n int) *img {
	f := &img{}
	if uintptr(unsafe.Pointer(&buf[0]))%8 == 0 {
		f.buf = buf
		f.recs = unsafe.Slice((*rec)(unsafe.Pointer(&buf[0])), n) // want `unsafe view of buf constructed without a dominating bounds check of len\(buf\)`
	}
	return f
}

// missing alignment check: only bounds are proven.
func decodeNoAlign(buf []byte, n int) *img {
	if len(buf) != layoutTotal(n) {
		return nil
	}
	f := &img{}
	f.buf = buf
	f.recs = unsafe.Slice((*rec)(unsafe.Pointer(&buf[0])), n) // want `unsafe view of buf constructed without a dominating alignment check of buf`
	return f
}

// escape asymmetry: the view is returned but buf stays local.
func sliceEscapes(buf []byte, n int) []rec {
	if len(buf) != layoutTotal(n) {
		return nil
	}
	if uintptr(unsafe.Pointer(&buf[0]))%8 != 0 {
		return nil
	}
	r := unsafe.Slice((*rec)(unsafe.Pointer(&buf[0])), n) // want `unsafe view over buf escapes sliceEscapes but buf itself does not; retain the backing buffer alongside the view`
	return r
}

// clean: view and backing escape together.
func sliceEscapesWithBacking(buf []byte, n int, f *img) {
	if len(buf) != layoutTotal(n) {
		return
	}
	if uintptr(unsafe.Pointer(&buf[0]))%8 != 0 {
		return
	}
	f.buf = buf
	f.recs = unsafe.Slice((*rec)(unsafe.Pointer(&buf[0])), n)
}

// write through a view local: the frozen image is read-only.
func writeViewLocal(buf []byte, n int) {
	if len(buf) != layoutTotal(n) {
		return
	}
	if uintptr(unsafe.Pointer(&buf[0]))%8 != 0 {
		return
	}
	r := unsafe.Slice((*rec)(unsafe.Pointer(&buf[0])), n)
	r[0] = rec{} // want `write through unsafe-derived view r`
}

// write through a view field, package-wide: recs held an unsafe view in
// the decoders above, so no function may store through it.
func writeViewField(f *img) {
	f.recs[0].a = 1 // want `write through unsafe-derived view recs`
}

// copy into a view is a bulk write.
func copyIntoView(f *img, src []rec) {
	copy(f.recs, src) // want `copy into unsafe-derived view recs`
}

// fillLane stores a factory result into lane, which makes lane a view
// field package-wide: not even the function that built it may write
// through it.
func fillLane(f *img, n int) {
	f.lane = alignedSlab(n)
	f.lane[0] = 1 // want `write through unsafe-derived view lane`
}

// write through the factory-derived field elsewhere.
func writeLane(f *img) {
	f.lane[0] = 1 // want `write through unsafe-derived view lane`
}

// clean: the builder fills arrays it just made — composite-literal
// make() fields and plain make() assignments are owned, not views, even
// though the same fields hold unsafe views after a zero-copy decode.
func build(n int) *img {
	f := &img{off: make([]int32, n+1)}
	f.recs = make([]rec, n)
	for i := 0; i < n; i++ {
		f.off[i+1] = int32(i)
		f.recs[i] = rec{a: uint32(i)}
	}
	return f
}
