// Package jsonpkg is a fixture for imitatorvet's -json output-shape test:
// the decoder sizes one allocation from an unchecked wire count on purpose,
// so the tool reports exactly one wirebounds diagnostic here. The directory
// lives under testdata, which ./... expansion skips, so the CI gate over the
// real tree never sees it.
package jsonpkg

import "encoding/binary"

// Decode allocates straight from a decoded length.
func Decode(buf []byte) []byte {
	return make([]byte, binary.LittleEndian.Uint32(buf))
}
