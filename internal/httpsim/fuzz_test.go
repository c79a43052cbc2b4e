package httpsim

import "testing"

// FuzzResponseParser hardens the incremental response parser: arbitrary
// bytes never panic, and a reported completion implies a consistent
// parsed response.
func FuzzResponseParser(f *testing.F) {
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello"))
	f.Add([]byte("HTTP/1.1 302 Found\r\nLocation: http://x/\r\nContent-Length: 0\r\n\r\n"))
	f.Add([]byte("garbage\r\n\r\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var p ResponseParser
		done, err := p.Feed(data)
		if err != nil || !done {
			return
		}
		r := p.Response()
		if r.ContentLength != len(r.Body) {
			t.Fatalf("content-length %d != body %d", r.ContentLength, len(r.Body))
		}
		if r.StatusCode < 0 {
			t.Fatalf("negative status")
		}
	})
}

// FuzzRequestParser covers the server-side request head parser: a
// request parsed into a Request that last held another one must equal
// the same request parsed fresh.
func FuzzRequestParser(f *testing.F) {
	f.Add([]byte("GET / HTTP/1.1\r\nHost: a.example\r\n\r\n"))
	f.Add([]byte("GET http://a/ HTTP/1.1\r\n\r\n"))
	f.Add([]byte("\r\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var p RequestParser
		var req Request
		done, err := p.Feed(data, &req)
		if err != nil || !done {
			return
		}
		if req.Method == "" || req.Target == "" {
			t.Fatalf("parsed request with empty fields: %+v", req)
		}
		var p2 RequestParser
		reused := Request{Method: "HEAD", Target: "/old", Host: "old.example", NoCache: true}
		if done, err := p2.Feed(data, &reused); err != nil || !done {
			t.Fatalf("reused parse: done %v, err %v", done, err)
		}
		if reused != req {
			t.Fatalf("parse into a reused request = %+v, fresh = %+v", reused, req)
		}
	})
}
