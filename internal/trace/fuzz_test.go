package trace

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzSDTRDecode drives arbitrary byte images through both .sdtr decoders
// and demands they agree: the zero-copy ParseTrace and the legacy streaming
// ReadTrace must reach the same accept/reject verdict (rejections always
// wrapping ErrBadTrace), and on accept must decode identical records.
// Neither may panic. The seed corpus under testdata/fuzz/FuzzSDTRDecode
// pins the interesting shapes: valid traces, every header-error class,
// truncated bodies, trailing junk, and flag/field extremes.
func FuzzSDTRDecode(f *testing.F) {
	// A small valid trace: one read, one write with the max line address,
	// one max-gap record.
	var valid bytes.Buffer
	if err := WriteTrace(&valid, NewFixed([]Access{
		{Line: 7, Gap: 3},
		{Line: 1<<34 - 1, Write: true, Gap: 0},
		{Line: 0, Gap: 0xFFFF},
	}), 3); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(append(valid.Bytes(), 0xDE, 0xAD, 0xBE, 0xEF))                                       // trailing junk
	f.Add(valid.Bytes()[:valid.Len()-5])                                                       // truncated body
	f.Add([]byte{})                                                                            // empty input
	f.Add([]byte("SDTR\x01\x00"))                                                              // short header
	f.Add([]byte("SDTR\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00"))                              // zero records
	f.Add([]byte("XXXX\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00"))                              // bad magic
	f.Add([]byte("SDTR\x09\x00\x00\x00\x00\x00\x00\x00\x00\x00"))                              // bad version
	f.Add([]byte("SDTR\x01\x00\xff\xff\xff\xff\xff\xff\xff\xff"))                              // absurd count
	f.Add(append([]byte("SDTR\x01\x00\x01\x00\x00\x00\x00\x00\x00\x00"), make([]byte, 10)...)) // one zero record

	f.Fuzz(func(t *testing.T, data []byte) {
		mt, perr := ParseTrace(data)
		legacy, rerr := ReadTrace(bytes.NewReader(data))

		if (perr == nil) != (rerr == nil) {
			t.Fatalf("verdicts disagree: ParseTrace=%v ReadTrace=%v", perr, rerr)
		}
		if perr != nil {
			if !errors.Is(perr, ErrBadTrace) {
				t.Fatalf("ParseTrace error not ErrBadTrace: %v", perr)
			}
			if !errors.Is(rerr, ErrBadTrace) {
				t.Fatalf("ReadTrace error not ErrBadTrace: %v", rerr)
			}
			return
		}
		if mt.Len() != uint64(len(legacy)) {
			t.Fatalf("record counts disagree: mapped %d, legacy %d", mt.Len(), len(legacy))
		}
		for i := range legacy {
			if got := mt.At(uint64(i)); got != legacy[i] {
				t.Fatalf("record %d disagrees: mapped %+v, legacy %+v", i, got, legacy[i])
			}
		}
		// The replay generator must serve the same records without panicking,
		// including the wrap back to record 0.
		if mt.Len() > 0 {
			rep, err := mt.Replay()
			if err != nil {
				t.Fatalf("Replay() = %v on non-empty trace", err)
			}
			for i := range legacy {
				if got := rep.Next(); got != legacy[i] {
					t.Fatalf("replayed record %d disagrees: %+v vs %+v", i, got, legacy[i])
				}
			}
			if got := rep.Next(); got != legacy[0] {
				t.Fatalf("replay wrap = %+v, want %+v", got, legacy[0])
			}
		}
		if err := mt.Close(); err != nil {
			t.Fatalf("Close = %v", err)
		}
	})
}
