// Package httpsim implements the HTTP/1.1 layer of the simulated web
// measurement stack: a minimal but real message format, origin servers
// with injectable application-level failure modes, a wget-like client
// (redirect following, retry, per-address failover, 60-second idle abort —
// Section 3.1 of the paper), and an ISA-style forward proxy that resolves
// names itself and does not fail over across server addresses
// (Section 4.7).
package httpsim

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// crlfcrlf terminates a message head.
var crlfcrlf = []byte("\r\n\r\n")

// Errors surfaced by message parsing.
var (
	ErrMalformedRequest  = errors.New("httpsim: malformed request")
	ErrMalformedResponse = errors.New("httpsim: malformed response")
)

// Request is a parsed HTTP request.
type Request struct {
	Method string
	// Target is the request target: origin-form ("/index.html") for
	// direct requests, absolute-form ("http://host/path") for proxied
	// requests.
	Target  string
	Host    string
	NoCache bool
}

// AppendRequest appends the request's wire form to b.
func AppendRequest(b []byte, r *Request) []byte {
	b = append(b, r.Method...)
	b = append(b, ' ')
	b = append(b, r.Target...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, r.Host...)
	b = append(b, "\r\nUser-Agent: simwget/1.9\r\n"...)
	if r.NoCache {
		b = append(b, "Cache-Control: no-cache\r\nPragma: no-cache\r\n"...)
	}
	b = append(b, "Connection: close\r\n\r\n"...)
	return b
}

// ParseRequest parses a complete request head (through the blank line).
func ParseRequest(head string) (*Request, error) {
	r := new(Request)
	if err := parseRequestInto([]byte(head), r); err != nil {
		return nil, err
	}
	return r, nil
}

// crlf separates head lines.
var crlf = []byte("\r\n")

// nextLine splits off the first CRLF-terminated line of head.
func nextLine(head []byte) (line, rest []byte) {
	if i := bytes.Index(head, crlf); i >= 0 {
		return head[:i], head[i+2:]
	}
	return head, nil
}

// internMethod avoids allocating for the methods the simulator uses.
func internMethod(m []byte) string {
	switch {
	case bytes.Equal(m, []byte("GET")):
		return "GET"
	case bytes.Equal(m, []byte("HEAD")):
		return "HEAD"
	default:
		return string(m)
	}
}

// parseRequestInto parses a request head into r, overwriting every
// field.
func parseRequestInto(head []byte, r *Request) error {
	line, rest := nextLine(head)
	method, afterMethod, ok1 := bytes.Cut(line, []byte(" "))
	target, version, ok2 := bytes.Cut(afterMethod, []byte(" "))
	if !ok1 || !ok2 || !bytes.HasPrefix(version, []byte("HTTP/1.")) {
		return fmt.Errorf("%w: %q", ErrMalformedRequest, line)
	}
	if len(method) == 0 || len(target) == 0 {
		return fmt.Errorf("%w: empty method or target", ErrMalformedRequest)
	}
	*r = Request{Method: internMethod(method), Target: string(target)}
	for len(rest) > 0 {
		var ln []byte
		ln, rest = nextLine(rest)
		name, val, found := bytes.Cut(ln, []byte(":"))
		if !found {
			continue
		}
		val = bytes.TrimSpace(val)
		switch {
		case asciiEqualFold(name, "host"):
			r.Host = strings.ToLower(string(val))
		case asciiEqualFold(name, "cache-control"), asciiEqualFold(name, "pragma"):
			if containsFold(val, "no-cache") {
				r.NoCache = true
			}
		}
	}
	if r.Host == "" && !strings.HasPrefix(r.Target, "http://") {
		return fmt.Errorf("%w: missing Host", ErrMalformedRequest)
	}
	return nil
}

// asciiEqualFold reports whether b equals lower under ASCII case folding;
// lower must already be lowercase. Unlike strings.ToLower it never
// allocates.
func asciiEqualFold(b []byte, lower string) bool {
	if len(b) != len(lower) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// containsFold reports whether b contains lower under ASCII case folding.
func containsFold(b []byte, lower string) bool {
	for i := 0; i+len(lower) <= len(b); i++ {
		if asciiEqualFold(b[i:i+len(lower)], lower) {
			return true
		}
	}
	return false
}

// Response is an HTTP response head plus body.
type Response struct {
	StatusCode    int
	Location      string // for redirects
	ContentLength int
	Body          []byte
}

// StatusText returns the reason phrase for the small set of codes the
// simulator uses.
func StatusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 301:
		return "Moved Permanently"
	case 302:
		return "Found"
	case 304:
		return "Not Modified"
	case 400:
		return "Bad Request"
	case 403:
		return "Forbidden"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	case 502:
		return "Bad Gateway"
	case 503:
		return "Service Unavailable"
	case 504:
		return "Gateway Timeout"
	default:
		return "Unknown"
	}
}

// AppendResponseHead appends the response head's wire form to b; the
// body follows separately so servers can stall mid-body.
func AppendResponseHead(b []byte, r *Response) []byte {
	b = append(b, "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(r.StatusCode), 10)
	b = append(b, ' ')
	b = append(b, StatusText(r.StatusCode)...)
	b = append(b, "\r\nServer: simhttpd/0.9\r\n"...)
	if r.Location != "" {
		b = append(b, "Location: "...)
		b = append(b, r.Location...)
		b = append(b, "\r\n"...)
	}
	b = append(b, "Content-Length: "...)
	b = strconv.AppendInt(b, int64(r.ContentLength), 10)
	b = append(b, "\r\nConnection: close\r\n\r\n"...)
	return b
}

// ResponseParser incrementally consumes response bytes as TCP delivers
// them, tolerating arbitrary segmentation.
type ResponseParser struct {
	// buf accumulates the whole message; the head is kept in place and
	// the body starts at bodyStart, so a caller-supplied buffer can be
	// recycled at full capacity once the response is consumed.
	buf        []byte
	bodyStart  int
	headDone   bool
	resp       Response
	bodyWanted int
	// HeaderBytes counts bytes consumed by the head, for byte
	// accounting.
	HeaderBytes int
}

// Feed appends newly received bytes. It returns done=true once the full
// message (head + Content-Length body) has been received, or an error for
// a malformed head.
func (p *ResponseParser) Feed(data []byte) (done bool, err error) {
	p.buf = append(p.buf, data...)
	if !p.headDone {
		idx := bytes.Index(p.buf, crlfcrlf)
		if idx < 0 {
			if len(p.buf) > 64*1024 {
				return false, fmt.Errorf("%w: head too large", ErrMalformedResponse)
			}
			return false, nil
		}
		if err := p.parseHead(p.buf[:idx]); err != nil {
			return false, err
		}
		p.HeaderBytes = idx + 4
		p.bodyStart = idx + 4
		p.headDone = true
		// Size the buffer for the whole message up front so the
		// per-segment appends below never regrow it.
		if need := p.bodyStart + p.bodyWanted; need > cap(p.buf) {
			nb := make([]byte, len(p.buf), need)
			copy(nb, p.buf)
			p.buf = nb
		}
	}
	if len(p.buf)-p.bodyStart >= p.bodyWanted {
		p.resp.Body = p.buf[p.bodyStart : p.bodyStart+p.bodyWanted]
		return true, nil
	}
	return false, nil
}

// Partial reports how many body bytes have arrived so far; valid before
// completion.
func (p *ResponseParser) Partial() int {
	if !p.headDone {
		return 0
	}
	return len(p.buf) - p.bodyStart
}

// HeadDone reports whether the full head has been parsed. The paper's "no
// response" vs "partial response" split hinges on whether any response
// bytes arrived; we expose head state for finer diagnostics.
func (p *ResponseParser) HeadDone() bool { return p.headDone }

// Response returns the parsed response; valid once Feed reported done.
func (p *ResponseParser) Response() *Response { return &p.resp }

// reset empties the parser for a new response, keeping its buffer.
func (p *ResponseParser) reset() { *p = ResponseParser{buf: p.buf[:0]} }

func (p *ResponseParser) parseHead(head []byte) error {
	line, rest := nextLine(head)
	version, afterVersion, _ := bytes.Cut(line, []byte(" "))
	codeStr, _, _ := bytes.Cut(afterVersion, []byte(" "))
	code, ok := atoiBytes(codeStr)
	if !ok || !bytes.HasPrefix(version, []byte("HTTP/1.")) {
		return fmt.Errorf("%w: status line %q", ErrMalformedResponse, line)
	}
	p.resp.StatusCode = code
	for len(rest) > 0 {
		var ln []byte
		ln, rest = nextLine(rest)
		name, val, found := bytes.Cut(ln, []byte(":"))
		if !found {
			continue
		}
		val = bytes.TrimSpace(val)
		switch {
		case asciiEqualFold(name, "content-length"):
			n, ok := atoiBytes(val)
			if !ok {
				return fmt.Errorf("%w: content-length %q", ErrMalformedResponse, val)
			}
			p.resp.ContentLength = n
			p.bodyWanted = n
		case asciiEqualFold(name, "location"):
			p.resp.Location = string(val)
		}
	}
	return nil
}

// atoiBytes parses a non-negative decimal without converting to string.
func atoiBytes(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// RequestParser incrementally consumes request bytes on the server side.
type RequestParser struct {
	buf []byte
}

// Feed appends bytes; once the head is complete it parses it into r and
// reports done (requests in this study have no bodies).
func (p *RequestParser) Feed(data []byte, r *Request) (done bool, err error) {
	p.buf = append(p.buf, data...)
	idx := bytes.Index(p.buf, crlfcrlf)
	if idx < 0 {
		if len(p.buf) > 64*1024 {
			return false, fmt.Errorf("%w: head too large", ErrMalformedRequest)
		}
		return false, nil
	}
	return true, parseRequestInto(p.buf[:idx], r)
}

// SplitURL splits "http://host/path" into host and path ("/" default).
// A bare "host/path" (no scheme) is accepted, matching wget.
func SplitURL(u string) (host, path string, err error) {
	s := strings.TrimPrefix(u, "http://")
	if s == "" || strings.HasPrefix(s, "/") {
		return "", "", fmt.Errorf("httpsim: bad url %q", u)
	}
	host, path, found := strings.Cut(s, "/")
	if !found || path == "" {
		return strings.ToLower(host), "/", nil
	}
	return strings.ToLower(host), "/" + path, nil
}
