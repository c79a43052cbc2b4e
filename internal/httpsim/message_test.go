package httpsim

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestRequestRoundTrip(t *testing.T) {
	req := &Request{Method: "GET", Target: "/index.html", Host: "www.example.com", NoCache: true}
	b := AppendRequest(nil, req)
	head, _, ok := strings.Cut(string(b), "\r\n\r\n")
	if !ok {
		t.Fatal("no blank line")
	}
	got, err := ParseRequest(head)
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != "GET" || got.Target != "/index.html" || got.Host != "www.example.com" || !got.NoCache {
		t.Errorf("parsed = %+v", got)
	}
}

func TestParseRequestAbsoluteForm(t *testing.T) {
	got, err := ParseRequest("GET http://www.iitb.ac.in/ HTTP/1.1\r\nHost: www.iitb.ac.in")
	if err != nil {
		t.Fatal(err)
	}
	if got.Target != "http://www.iitb.ac.in/" {
		t.Errorf("target = %q", got.Target)
	}
}

func TestParseRequestRejectsGarbage(t *testing.T) {
	bad := []string{
		"",
		"GET /",
		"GET / SPDY/3",
		"GET / HTTP/1.1", // no Host, origin-form
	}
	for _, s := range bad {
		if _, err := ParseRequest(s); err == nil {
			t.Errorf("accepted %q", s)
		}
	}
}

func TestResponseParserWhole(t *testing.T) {
	body := []byte("hello world")
	head := AppendResponseHead(nil, &Response{StatusCode: 200, ContentLength: len(body)})
	var p ResponseParser
	done, err := p.Feed(append(head, body...))
	if err != nil || !done {
		t.Fatalf("done=%v err=%v", done, err)
	}
	if p.Response().StatusCode != 200 || !bytes.Equal(p.Response().Body, body) {
		t.Errorf("resp = %+v", p.Response())
	}
}

func TestResponseParserByteAtATime(t *testing.T) {
	body := []byte("0123456789")
	full := append(AppendResponseHead(nil, &Response{StatusCode: 404, ContentLength: len(body)}), body...)
	var p ResponseParser
	for i, b := range full {
		done, err := p.Feed([]byte{b})
		if err != nil {
			t.Fatalf("err at byte %d: %v", i, err)
		}
		if done != (i == len(full)-1) {
			t.Fatalf("done=%v at byte %d of %d", done, i, len(full))
		}
	}
	if p.Response().StatusCode != 404 {
		t.Errorf("status = %d", p.Response().StatusCode)
	}
}

func TestResponseParserPartial(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 100)
	head := AppendResponseHead(nil, &Response{StatusCode: 200, ContentLength: len(body)})
	var p ResponseParser
	done, err := p.Feed(append(head, body[:40]...))
	if err != nil || done {
		t.Fatalf("done=%v err=%v", done, err)
	}
	if p.Partial() != 40 {
		t.Errorf("Partial = %d, want 40", p.Partial())
	}
	if !p.HeadDone() {
		t.Error("head should be complete")
	}
}

func TestResponseParserRedirect(t *testing.T) {
	head := AppendResponseHead(nil, &Response{StatusCode: 302, Location: "http://other.example.com/", ContentLength: 0})
	var p ResponseParser
	done, err := p.Feed(head)
	if err != nil || !done {
		t.Fatalf("done=%v err=%v", done, err)
	}
	if p.Response().Location != "http://other.example.com/" {
		t.Errorf("location = %q", p.Response().Location)
	}
}

func TestResponseParserMalformed(t *testing.T) {
	var p ResponseParser
	if _, err := p.Feed([]byte("garbage nonsense\r\n\r\n")); err == nil {
		t.Error("garbage status line accepted")
	}
	var p2 ResponseParser
	if _, err := p2.Feed([]byte("HTTP/1.1 200 OK\r\nContent-Length: banana\r\n\r\n")); err == nil {
		t.Error("bad content-length accepted")
	}
}

func TestSplitURL(t *testing.T) {
	cases := []struct {
		in, host, path string
		wantErr        bool
	}{
		{"http://www.example.com/", "www.example.com", "/", false},
		{"http://www.example.com", "www.example.com", "/", false},
		{"http://WWW.EXAMPLE.COM/Path/x", "www.example.com", "/Path/x", false},
		{"www.example.com/a", "www.example.com", "/a", false},
		{"http://", "", "", true},
		{"", "", "", true},
	}
	for _, tc := range cases {
		host, path, err := SplitURL(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("SplitURL(%q) err = %v", tc.in, err)
			continue
		}
		if err == nil && (host != tc.host || path != tc.path) {
			t.Errorf("SplitURL(%q) = %q,%q want %q,%q", tc.in, host, path, tc.host, tc.path)
		}
	}
}

func TestMakeBody(t *testing.T) {
	for _, n := range []int{0, 1, 10, 1000, 10240} {
		if got := len(makeBody(n)); got != n {
			t.Errorf("makeBody(%d) len = %d", n, got)
		}
	}
}

func TestResponseParserFragmentationProperty(t *testing.T) {
	// Any segmentation of a valid message parses identically.
	f := func(cuts []uint8, bodyLen uint16) bool {
		body := makeBody(int(bodyLen) % 5000)
		full := append(AppendResponseHead(nil, &Response{StatusCode: 200, ContentLength: len(body)}), body...)
		var p ResponseParser
		pos := 0
		for _, c := range cuts {
			if pos >= len(full) {
				break
			}
			n := int(c)%97 + 1
			if pos+n > len(full) {
				n = len(full) - pos
			}
			done, err := p.Feed(full[pos : pos+n])
			if err != nil {
				return false
			}
			pos += n
			if done {
				return pos == len(full) && bytes.Equal(p.Response().Body, body)
			}
		}
		// Feed the remainder in one go.
		done, err := p.Feed(full[pos:])
		return err == nil && done && bytes.Equal(p.Response().Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
