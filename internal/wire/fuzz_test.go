package wire

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/oid"
)

// FuzzHeaderDecode ensures DecodeFrom never panics and that anything
// it accepts re-encodes to an identical header. Run the corpus with
// plain `go test`; extend it with `go test -fuzz=FuzzHeaderDecode`.
// Besides the seeds below, testdata/fuzz/FuzzHeaderDecode holds frames
// one `gaspbench check` run sent (TestFuzzCorpusFrames).
func FuzzHeaderDecode(f *testing.F) {
	good, _ := Encode(&Header{
		Type: MsgMem, Flags: FlagReliable, Src: 1, Dst: 2,
		Object: oid.ID{Hi: 3, Lo: 4}, Seq: 5, Ack: 6,
	}, []byte("payload"))
	f.Add(good)
	f.Add([]byte{})
	f.Add(make([]byte, HeaderSize))
	f.Add(good[:HeaderSize-1])
	mut := append([]byte(nil), good...)
	mut[3] = 0xFF
	f.Add(mut)
	traced, _ := Encode(&Header{
		Type: MsgMem, Flags: FlagReliable | FlagTraced, Src: 1, Dst: 2,
		Seq: 5, TraceID: 7, SpanID: 8, ParentID: 9,
	}, []byte("payload"))
	f.Add(traced)
	f.Add(traced[:TracedHeaderSize-1])
	v1 := append([]byte(nil), good...)
	v1[2] = 1
	f.Add(v1)
	f.Add(v2Frame(sampleHeader(), []byte("payload")))

	f.Fuzz(func(t *testing.T, data []byte) {
		var h Header
		if err := h.DecodeFrom(data); err != nil {
			return // rejected is fine; panics are not
		}
		// Accepted headers must round-trip.
		re, err := Encode(&h, Payload(data))
		if err != nil {
			t.Fatalf("re-encode of accepted header failed: %v", err)
		}
		var h2 Header
		if err := h2.DecodeFrom(re); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if h2 != h {
			t.Fatalf("round trip changed header: %+v vs %+v", h, h2)
		}
	})
}

// TestFuzzCorpusFrames pins the committed seed corpus: frames the fig2
// scenario of `gaspbench check -seed 42` sent (its first plain, traced
// and broadcast frames and its longest, a 32 KiB grant fragment), which
// decode, and one version-2 frame, which is refused for its version.
func TestFuzzCorpusFrames(t *testing.T) {
	files, _ := filepath.Glob("testdata/fuzz/FuzzHeaderDecode/*")
	if len(files) != 5 {
		t.Fatalf("%d corpus files, want 5", len(files))
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		_, quoted, _ := strings.Cut(strings.TrimSpace(string(raw)), "[]byte(")
		fr, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		var h Header
		err = h.DecodeFrom([]byte(fr))
		switch name := filepath.Base(file); {
		case strings.HasPrefix(name, "v2-"):
			if !errors.Is(err, ErrBadVersion) {
				t.Errorf("%s: %v, want ErrBadVersion", name, err)
			}
		case err != nil:
			t.Errorf("%s: %v", name, err)
		case name == "v3-traced" && h.Flags&FlagTraced == 0,
			name == "v3-broadcast" && h.Dst != StationBroadcast,
			name == "v3-max-payload" && h.PayloadLen < 32<<10:
			t.Errorf("%s decodes to %+v", name, h)
		}
	}
}
