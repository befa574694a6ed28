package h1

import (
	"bufio"
	"io"
	"net/http"
	"strconv"
	"time"
)

// The writers put their bytes in bw, which keeps its first error and
// returns it from Flush. A driver ends a head with "\r\n".

// WriteStatusLine writes a reply's status line as net/http writes it, in
// the request's version, HTTP/1.minor.
func WriteStatusLine(bw *bufio.Writer, minor, code int) {
	if minor >= 1 {
		bw.WriteString("HTTP/1.1 ")
	} else {
		bw.WriteString("HTTP/1.0 ")
	}
	bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(code), 10))
	bw.WriteByte(' ')
	if text := http.StatusText(code); text != "" {
		bw.WriteString(text)
	} else {
		bw.WriteString("status code " + strconv.Itoa(code))
	}
	bw.WriteString("\r\n")
}

// WriteRequestLine writes an HTTP/1.1 request line and its Host field.
// The request-target is target followed by rest, which saves a caller
// that joins two pieces building a string. The caller has checked method
// with ValidToken, both pieces with ValidTarget and host with ValidHost.
func WriteRequestLine(bw *bufio.Writer, method, target string, rest []byte, host string) {
	bw.WriteString(method)
	bw.WriteByte(' ')
	bw.WriteString(target)
	bw.Write(rest)
	bw.WriteString(" HTTP/1.1\r\n")
	WriteField(bw, "Host", host)
}

// WriteField writes one field line.
func WriteField(bw *bufio.Writer, name, value string) {
	bw.WriteString(name)
	bw.WriteString(": ")
	bw.WriteString(value)
	bw.WriteString("\r\n")
}

// WriteHeader writes every field of header but the ones a writer sets
// from the message itself: Host, Content-Length, Transfer-Encoding and
// Trailer. The caller has checked each name with ValidToken and each
// value with ValidValue.
func WriteHeader(bw *bufio.Writer, header http.Header) {
	for name, values := range header {
		switch name {
		case "Host", "Content-Length", "Transfer-Encoding", "Trailer":
			continue
		}
		for _, v := range values {
			WriteField(bw, name, v)
		}
	}
}

// WriteLength writes a Content-Length field.
func WriteLength(bw *bufio.Writer, n int64) {
	bw.WriteString("Content-Length: ")
	bw.Write(strconv.AppendInt(bw.AvailableBuffer(), n, 10))
	bw.WriteString("\r\n")
}

// WriteDate writes a Date field for now, as net/http's server does.
func WriteDate(bw *bufio.Writer) {
	bw.WriteString("Date: ")
	bw.Write(time.Now().UTC().AppendFormat(bw.AvailableBuffer(), http.TimeFormat))
	bw.WriteString("\r\n")
}

// WriteConnection writes the Connection field a reply needs, as net/http
// does: "close" to an HTTP/1.1 client when the connection ends after the
// reply, "keep-alive" to an HTTP/1.0 client when it does not.
func WriteConnection(bw *bufio.Writer, minor int, keepAlive bool) {
	switch {
	case !keepAlive && minor >= 1:
		WriteField(bw, "Connection", "close")
	case keepAlive && minor == 0:
		WriteField(bw, "Connection", "keep-alive")
	}
}

// chunkHead is the room a chunk-size line takes in front of a chunk of at
// most maxChunk bytes: four hex digits and CRLF.
const (
	chunkHead = 6
	maxChunk  = 0xffff
)

// CopyBody copies body into bw's free space until EOF or, when limit >= 0,
// limit bytes, framing each read as a chunk in place when chunked. It
// reports the bytes copied; a body that ends short of limit is
// io.ErrUnexpectedEOF.
func CopyBody(bw *bufio.Writer, body io.Reader, limit int64, chunked bool) (int64, error) {
	var written int64
	for limit < 0 || written < limit {
		if bw.Available() < 64 {
			if err := bw.Flush(); err != nil {
				return written, err
			}
		}
		buf := bw.AvailableBuffer()[:bw.Available()]
		data := buf
		if chunked {
			data = buf[chunkHead : min(len(buf), chunkHead+maxChunk+2)-2]
		}
		if limit >= 0 && int64(len(data)) > limit-written {
			data = data[:limit-written]
		}
		m, err := body.Read(data)
		if m > 0 {
			written += int64(m)
			out := buf[:m]
			if chunked {
				out = frameChunk(buf, m)
			}
			if _, werr := bw.Write(out); werr != nil {
				return written, werr
			}
		}
		switch {
		case err == io.EOF && limit >= 0 && written < limit:
			return written, io.ErrUnexpectedEOF
		case err == io.EOF:
			return written, nil
		case err != nil:
			return written, err
		}
	}
	return written, nil
}

// frameChunk turns the m bytes at buf[chunkHead:] into a chunk at the
// start of buf: its size line, the bytes, CRLF.
func frameChunk(buf []byte, m int) []byte {
	var hex [8]byte
	size := strconv.AppendUint(hex[:0], uint64(m), 16)
	l := len(size) + 2
	copy(buf[l:], buf[chunkHead:chunkHead+m])
	copy(buf, size)
	buf[l-2], buf[l-1] = '\r', '\n'
	buf[l+m], buf[l+m+1] = '\r', '\n'
	return buf[:l+m+2]
}

// WriteChunk writes p as one chunk.
func WriteChunk(bw *bufio.Writer, p []byte) {
	bw.Write(strconv.AppendUint(bw.AvailableBuffer(), uint64(len(p)), 16))
	bw.WriteString("\r\n")
	bw.Write(p)
	bw.WriteString("\r\n")
}

// WriteLastChunk ends a chunked body, with no trailer.
func WriteLastChunk(bw *bufio.Writer) { bw.WriteString("0\r\n\r\n") }
