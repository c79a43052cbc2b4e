package httpsim

import (
	"fmt"
	"strconv"

	"webfail/internal/simnet"
	"webfail/internal/tcpsim"
)

// HTTPPort is the web server port.
const HTTPPort = 80

// AppMode is the application-level health of a web server, orthogonal to
// the TCP-level host status. Together they produce the paper's TCP failure
// sub-classes: host down → "no connection"; AppHung → "no response";
// AppStall / abort → "partial response"; AppError → HTTP failure.
type AppMode uint8

// Application modes.
const (
	// AppOK serves requests normally.
	AppOK AppMode = iota
	// AppHung accepts connections and reads requests but never
	// responds — an overloaded or wedged server application.
	AppHung
	// AppStall sends the head and roughly half the body, then stops
	// forever; the client's idle timer eventually fires.
	AppStall
	// AppAbort sends the head and part of the body, then resets the
	// connection.
	AppAbort
	// AppError answers every request with ErrorCode (default 503).
	AppError
)

func (m AppMode) String() string {
	switch m {
	case AppOK:
		return "ok"
	case AppHung:
		return "hung"
	case AppStall:
		return "stall"
	case AppAbort:
		return "abort"
	case AppError:
		return "error"
	default:
		return "unknown"
	}
}

// AppStatus couples a mode with an optional status code for AppError.
type AppStatus struct {
	Mode AppMode
	Code int
}

// AppStatusFunc resolves a server's application health at an instant; nil
// means always AppOK.
type AppStatusFunc func(now simnet.Time) AppStatus

// Page is one servable object.
type Page struct {
	Path string
	Size int
	// RedirectTo, when set, makes the page answer 302 with this URL.
	RedirectTo string
}

// Server is a simulated origin web server.
type Server struct {
	Stack *tcpsim.Stack
	// Hosts lists the virtual hosts this server answers for; an empty
	// list accepts any Host header.
	Hosts []string
	// Pages maps path -> page; "/" should exist for the index.
	Pages map[string]Page
	// Status drives application-level fault injection.
	Status AppStatusFunc

	// Served counts completed responses.
	Served uint64

	// bodies caches generated page bodies by size. Conn.Send copies into
	// the connection's send buffer, so one body is safely shared across
	// every request for the same page size.
	bodies map[int][]byte
	// readers reads each connection's request head; serve reads the
	// parsed request before returning and keeps nothing.
	readers readerPool
	// head and errBody are response scratch, safe to reuse for the same
	// reason as bodies.
	head, errBody []byte
}

// NewServer attaches an HTTP server to the TCP stack on port 80.
func NewServer(stack *tcpsim.Stack) *Server {
	s := &Server{Stack: stack, Pages: map[string]Page{"/": {Path: "/", Size: 10240}}}
	s.readers = readerPool{serve: s.serve, reject: s.respondError}
	err := stack.Listen(HTTPPort, &tcpsim.Listener{
		Accept: s.readers.accept,
	})
	if err != nil {
		panic("httpsim: server listen: " + err.Error())
	}
	return s
}

// AddPage registers a page.
func (s *Server) AddPage(p Page) { s.Pages[p.Path] = p }

func (s *Server) appStatus() AppStatus {
	if s.Status == nil {
		return AppStatus{Mode: AppOK}
	}
	return s.Status(s.Stack.Host().Now())
}

// readerPool reads request heads off an endpoint's accepted
// connections, handing each complete head to serve and answering a
// malformed one through reject, the endpoint's own error writer. It
// pools its readers; every head is parsed into req, which serve must
// finish with before it returns.
type readerPool struct {
	serve  func(*tcpsim.Conn, *Request)
	reject func(c *tcpsim.Conn, code int)
	req    Request
	free   []*requestReader
}

// requestReader is one connection's head reader. Its callbacks are
// method values created once per pooled instance, so reusing the reader
// reuses them.
type requestReader struct {
	pool      *readerPool
	conn      *tcpsim.Conn
	parser    RequestParser
	callbacks tcpsim.Callbacks
}

// accept wires a pooled reader onto a fresh connection.
func (p *readerPool) accept(c *tcpsim.Conn) {
	var r *requestReader
	if n := len(p.free); n > 0 {
		r = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		r = &requestReader{pool: p}
		r.callbacks = tcpsim.Callbacks{OnData: r.handleData, OnClose: r.handleClose}
	}
	r.conn = c
	r.parser.buf = r.parser.buf[:0]
	c.SetCallbacks(r.callbacks)
}

func (r *requestReader) handleData(data []byte) {
	p, c := r.pool, r.conn
	done, err := r.parser.Feed(data, &p.req)
	if err == nil && !done {
		return
	}
	r.release()
	if err != nil {
		p.reject(c, 400)
		return
	}
	p.serve(c, &p.req)
}

// handleClose releases the reader of a connection that closed before
// its request head was complete.
func (r *requestReader) handleClose(error) { r.release() }

// release detaches the reader from its connection, whose later events
// must not reach a reused reader, and returns it to the pool.
func (r *requestReader) release() {
	r.conn.SetCallbacks(tcpsim.Callbacks{})
	r.conn = nil
	r.pool.free = append(r.pool.free, r)
}

// serve produces the response according to the current application mode.
func (s *Server) serve(c *tcpsim.Conn, req *Request) {
	st := s.appStatus()
	switch st.Mode {
	case AppHung:
		return // read the request, never answer
	case AppError:
		code := st.Code
		if code == 0 {
			code = 503
		}
		s.respondError(c, code)
		return
	}

	if !s.hostMatches(req.Host) {
		s.respondError(c, 404)
		return
	}
	path := req.Target
	if i := indexByte(path, '?'); i >= 0 {
		path = path[:i]
	}
	page, ok := s.Pages[path]
	if !ok {
		s.respondError(c, 404)
		return
	}
	if page.RedirectTo != "" {
		body := []byte(fmt.Sprintf("<a href=%q>moved</a>\n", page.RedirectTo))
		s.head = AppendResponseHead(s.head[:0], &Response{StatusCode: 302, Location: page.RedirectTo, ContentLength: len(body)})
		c.Send(s.head)
		c.Send(body)
		c.Close()
		s.Served++
		return
	}

	body := s.body(page.Size)
	s.head = AppendResponseHead(s.head[:0], &Response{StatusCode: 200, ContentLength: len(body)})
	head := s.head
	switch st.Mode {
	case AppStall:
		c.Send(head)
		c.Send(body[:len(body)/2])
		// Never send the rest, never close: the client idles out.
		return
	case AppAbort:
		c.Send(head)
		c.Send(body[:len(body)/2])
		c.Abort()
		return
	default:
		c.Send(head)
		c.Send(body)
		c.Close()
		s.Served++
	}
}

func (s *Server) respondError(c *tcpsim.Conn, code int) {
	body := append(s.errBody[:0], "<html>"...)
	body = strconv.AppendInt(body, int64(code), 10)
	body = append(body, ' ')
	body = append(body, StatusText(code)...)
	body = append(body, "</html>\n"...)
	s.errBody = body
	s.head = AppendResponseHead(s.head[:0], &Response{StatusCode: code, ContentLength: len(body)})
	c.Send(s.head)
	c.Send(body)
	c.Close()
	s.Served++
}

func (s *Server) hostMatches(host string) bool {
	if len(s.Hosts) == 0 {
		return true
	}
	for _, h := range s.Hosts {
		if h == host {
			return true
		}
	}
	return false
}

// body returns the cached deterministic page body for size, generating it
// on first use.
func (s *Server) body(size int) []byte {
	if b, ok := s.bodies[size]; ok {
		return b
	}
	if s.bodies == nil {
		s.bodies = make(map[int][]byte)
	}
	b := makeBody(size)
	s.bodies[size] = b
	return b
}

// makeBody produces a deterministic page body of the given size.
func makeBody(size int) []byte {
	const chunk = "<!-- simulated index page content 0123456789 -->\n"
	b := make([]byte, 0, size)
	for len(b) < size {
		n := size - len(b)
		if n > len(chunk) {
			n = len(chunk)
		}
		b = append(b, chunk[:n]...)
	}
	return b
}

func indexByte(s string, c byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return i
		}
	}
	return -1
}
