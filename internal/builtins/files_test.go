package builtins

import (
	"bytes"
	"crypto/md5"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/vm/value"
)

// refFile is the stored-file substrate, kept as the reference: the
// contents of file idx filled one generator word at a time, the last word
// truncated to the file's size.
func refFile(idx, size int) []byte {
	data := make([]byte, size)
	h := uint64(idx)*0x9e3779b97f4a7c15 + 0xabcdef
	for i := 0; i < size; i += 8 {
		h = h*6364136223846793005 + 1442695040888963407
		var word [8]byte
		binary.LittleEndian.PutUint64(word[:], h)
		copy(data[i:], word[:])
	}
	return data
}

var (
	refFileSizes   = []int{0, 1, 7, 8, 1000, 1001, 24 * 1024}
	refFileIndices = []int{0, 1, 63}
)

// TestFileRangeMatchesStoredFill pins the generated-on-read file substrate
// to the stored fill: for every size and file index, a file buffer's
// digest is md5.Sum of the reference bytes, buf_len is the size, a re-read
// at EOF is empty, hmm_score fails on the buffer exactly when the
// reference bytes hold a residue outside the alphabet, and the bytes the
// score generates are the reference bytes.
func TestFileRangeMatchesStoredFill(t *testing.T) {
	ResetFastCaches()
	emptySum := md5.Sum(nil)
	for _, size := range refFileSizes {
		w := NewWorld()
		for i := 0; i < 64; i++ {
			w.AddFile(fmt.Sprintf("f%02d.dat", i), size)
		}
		mat := call(t, w, "matrix_alloc", value.Int(4))
		for _, idx := range refFileIndices {
			ref := refFile(idx, size)
			fd := call(t, w, "fopen_idx", value.Int(int64(idx)))
			buf := call(t, w, "fread_all", fd)
			if n := call(t, w, "buf_len", buf).AsInt(); n != int64(size) {
				t.Errorf("size %d file %d: buf_len = %d", size, idx, n)
			}
			want := md5.Sum(ref)
			if got := call(t, w, "md5_buf", buf).AsString(); got != fmt.Sprintf("%x", want[:]) {
				t.Errorf("size %d file %d: md5_buf = %s, want %x", size, idx, got, want)
			}
			eof := call(t, w, "fread_all", fd)
			if n := call(t, w, "buf_len", eof).AsInt(); n != 0 {
				t.Errorf("size %d file %d: re-read at EOF has length %d", size, idx, n)
			}
			if got := call(t, w, "md5_buf", eof).AsString(); got != fmt.Sprintf("%x", emptySum[:]) {
				t.Errorf("size %d file %d: md5_buf at EOF = %s", size, idx, got)
			}
			outside := !allResidues(ref)
			if size >= 8 && !outside {
				t.Fatalf("size %d file %d: reference bytes all inside the alphabet; the error case is not covered", size, idx)
			}
			_, _, err := w.Fns()["hmm_score"]([]value.Value{buf, mat})
			if (err != nil) != outside {
				t.Errorf("size %d file %d: hmm_score err = %v, want an error: %v", size, idx, err, outside)
			}
			if got := w.bufs[buf.AsInt()].data; len(ref) > 0 && !bytes.Equal(got, ref) {
				t.Errorf("size %d file %d: generated bytes differ from the reference", size, idx)
			}
		}
	}
}

// TestFileStreamUnaligned reads file ranges from every offset of the first
// words in odd-sized pieces and checks them, and their digests, against
// the reference bytes.
func TestFileStreamUnaligned(t *testing.T) {
	ResetFastCaches()
	const idx, size = 5, 1001
	ref := refFile(idx, size)
	for lo := 0; lo <= 17; lo++ {
		s := newFileStream(idx, lo)
		var got []byte
		for n := lo; n < size; {
			piece := make([]byte, min(3+n%11, size-n))
			s.read(piece)
			got = append(got, piece...)
			n += len(piece)
		}
		if !bytes.Equal(got, ref[lo:]) {
			t.Errorf("stream from %d differs from the reference", lo)
		}
		want := md5.Sum(ref[lo:])
		if d := md5Range(fileRange{idx: idx, lo: lo, hi: size}); d != fmt.Sprintf("%x", want[:]) {
			t.Errorf("md5 of [%d, %d) = %s, want %x", lo, size, d, want)
		}
	}
}

func allResidues(b []byte) bool {
	for _, r := range b {
		if r >= hmmAlphabet {
			return false
		}
	}
	return true
}
