package h1

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http/httputil"
	"strings"
	"testing"
	"testing/iotest"
)

// next is what follows a body on the wire in every chunked case: the
// next message's first bytes, which a decoder that ends where the body
// ends leaves unread.
const next = "GET / HTTP/1.1\r\n"

// chunkedCases are the table of TestChunkedMatchesHTTPUtil and the seeds
// of FuzzChunked: valid bodies, extensions, trailers, oversized and
// malformed size lines, a bad chunk end, and too much framing.
var chunkedCases = map[string]string{
	"empty":            "0\r\n\r\n",
	"one chunk":        "5\r\nhello\r\n0\r\n\r\n",
	"chunks":           "5\r\nhello\r\n1\r\n \r\n5\r\nworld\r\n0\r\n\r\n",
	"upper hex":        "A\r\n0123456789\r\n0\r\n\r\n",
	"leading zeros":    "0005\r\nhello\r\n000\r\n\r\n",
	"bare LF lines":    "5\nhello\r\n0\n\n",
	"trailing space":   "5 \t\r\nhello\r\n0\r\n\r\n",
	"extension":        "5;name=value\r\nhello\r\n0;last\r\n\r\n",
	"quoted extension": "5;q=\"a;b\"\r\nhello\r\n0\r\n\r\n",
	"space extension":  "5 ;x\r\nhello\r\n0\r\n\r\n",
	"trailer":          "5\r\nhello\r\n0\r\nX-Sum: 1\r\nY: 2\r\n\r\n",
	"16 hex digits":    "000000000000000a\r\n0123456789\r\n0\r\n\r\n",
	"17 hex digits":    "0000000000000000a\r\n0123456789\r\n0\r\n\r\n",
	"huge size":        "ffffffffffffffff\r\nabc",
	"empty size":       "\r\nhello\r\n0\r\n\r\n",
	"leading space":    " 5\r\nhello\r\n0\r\n\r\n",
	"not hex":          "5g\r\nhello\r\n0\r\n\r\n",
	"negative":         "-5\r\nhello\r\n0\r\n\r\n",
	"long size line":   "5;" + strings.Repeat("x", 4100) + "\r\nhello\r\n0\r\n\r\n",
	"size line at max": "5;" + strings.Repeat("x", 4091) + "\r\nhello\r\n0\r\n\r\n",
	"under max":        "5;" + strings.Repeat("x", 4090) + "\r\nhello\r\n0\r\n\r\n",
	"bad chunk end":    "5\r\nhelloXY0\r\n\r\n",
	"LF chunk end":     "5\r\nhello\n0\r\n\r\n",
	"too much framing": strings.Repeat("1;"+strings.Repeat("e", 100)+"\r\nx\r\n", 200) + "0\r\n\r\n",
	"framing at last":  strings.Repeat("1;"+strings.Repeat("e", 60)+"\r\nx\r\n", 330) + "0;" + strings.Repeat("e", 2000) + "\r\n\r\n",
	"long trailer":     "5\r\nhello\r\n0\r\nX: " + strings.Repeat("t", 9000) + "\r\n\r\n",
}

// referenceChunked decodes a chunked body as Body did before it decoded
// chunks itself: httputil's chunked reader, then skipTrailer.
type referenceChunked struct {
	br     *bufio.Reader
	chunks io.Reader
	err    error
}

func (r *referenceChunked) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	n, err := r.chunks.Read(p)
	if err == io.EOF {
		if err = skipTrailer(r.br); err == nil {
			err = io.EOF
		}
	}
	r.err = err
	return n, err
}

// decoded is what a decoder made of one input.
type decoded struct {
	data string
	end  string // how the body ended
	rest string // what it left unread, on a clean end
}

// errorClass sorts a decoder's last error: a clean end, a cut short
// body, a cut short trailer, or any other refusal. The two decoders
// word their refusals differently.
func errorClass(err error) string {
	switch {
	case err == io.EOF:
		return "end"
	case err == io.ErrUnexpectedEOF:
		return "cut"
	case err == errTrailerCut:
		return "trailer cut"
	default:
		return "refused"
	}
}

// decode reads wire with the decoder open builds, p bytes a read, from a
// buffer of size bytes; slow hands the buffer one byte at a time.
func decode(wire []byte, size, p int, slow bool, open func(*bufio.Reader) io.Reader) decoded {
	var src io.Reader = bytes.NewReader(wire)
	if slow {
		src = iotest.OneByteReader(src)
	}
	br := bufio.NewReaderSize(src, size)
	r := open(br)
	var data bytes.Buffer
	buf := make([]byte, p)
	var err error
	for reads := 0; err == nil; reads++ {
		if reads > 1<<20 {
			return decoded{end: "no progress"}
		}
		var n int
		n, err = r.Read(buf)
		data.Write(buf[:n])
	}
	d := decoded{data: data.String(), end: errorClass(err)}
	if err == io.EOF {
		rest, _ := io.ReadAll(br)
		d.rest = string(rest)
	}
	return d
}

// compareChunked decodes wire with Body and with the reference, at a few
// read and buffer sizes, and reports where they differ.
func compareChunked(wire []byte) error {
	var errs []error
	for _, c := range []struct {
		size, p int
		slow    bool
	}{{4096, 4096, false}, {4096, 7, false}, {8192, 1, false}, {16, 3, true}} {
		got := decode(wire, c.size, c.p, c.slow, func(br *bufio.Reader) io.Reader {
			b := new(Body)
			b.Reset(br, &Head{Length: -1, Chunked: true})
			return b
		})
		want := decode(wire, c.size, c.p, c.slow, func(br *bufio.Reader) io.Reader {
			return &referenceChunked{br: br, chunks: httputil.NewChunkedReader(br)}
		})
		if got != want {
			errs = append(errs, fmt.Errorf("buffer %d, reads of %d, slow %v:\nBody:      %.200q\nreference: %.200q", c.size, c.p, c.slow, got, want))
		}
	}
	return errors.Join(errs...)
}

// TestChunkedMatchesHTTPUtil: Body decodes each case, and each case cut
// short at every byte, as httputil's chunked reader and skipTrailer
// decode it: the same data, the same kind of end, and on a clean end the
// same bytes left for the next message.
func TestChunkedMatchesHTTPUtil(t *testing.T) {
	for name, body := range chunkedCases {
		t.Run(name, func(t *testing.T) {
			wire := []byte(body + next)
			if err := compareChunked(wire); err != nil {
				t.Fatal(err)
			}
			if len(wire) > 512 { // the long cases: cut near their ends only
				wire = wire[len(wire)-64:]
			}
			for cut := 0; cut < len(wire); cut++ {
				if err := compareChunked(wire[:cut]); err != nil {
					t.Fatalf("cut at %d: %v", cut, err)
				}
			}
		})
	}
}

// TestChunkedCasesEnd: the table meets every kind of end, so the
// differential compares refusals and truncations as well as bodies.
func TestChunkedCasesEnd(t *testing.T) {
	seen := map[string]bool{}
	for _, body := range chunkedCases {
		for _, wire := range []string{body + next, body[:len(body)-1]} {
			seen[decode([]byte(wire), 4096, 4096, false, func(br *bufio.Reader) io.Reader {
				b := new(Body)
				b.Reset(br, &Head{Length: -1, Chunked: true})
				return b
			}).end] = true
		}
	}
	for _, end := range []string{"end", "cut", "trailer cut", "refused"} {
		if !seen[end] {
			t.Errorf("no case ends %q", end)
		}
	}
}

// FuzzChunked compares Body's chunked decoding with httputil's on any
// input, seeded by the table and testdata/fuzz/FuzzChunked.
func FuzzChunked(f *testing.F) {
	for _, body := range chunkedCases {
		if len(body) < 1024 {
			f.Add([]byte(body + next))
		}
	}
	f.Fuzz(func(t *testing.T, wire []byte) {
		if err := compareChunked(wire); err != nil {
			t.Errorf("%q:\n%v", wire, err)
		}
	})
}
