package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
)

// client is one keep-alive HTTP/1.1 connection that speaks only what the
// benchmark sends: GET and POST with a length-delimited body, replies with
// Content-Length or chunked bodies. It allocates nothing per request once
// warm, so the load generator adds little garbage to the process it
// shares with the server under test. A failed exchange drops the
// connection; the next request dials again.
type client struct {
	addr string
	nc   net.Conn
	r    *bufio.Reader
	req  []byte
	body []byte
}

func newClient(addr string) *client { return &client{addr: addr} }

func (c *client) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

// get sends GET target (path and query) and returns the status and body.
// The body is valid until the next call.
func (c *client) get(target string) (int, []byte, error) {
	c.req = append(append(append(c.req[:0], "GET "...), target...), " HTTP/1.1\r\nHost: perfbench\r\n\r\n"...)
	return c.exchange(nil)
}

// post sends payload to target.
func (c *client) post(target string, payload []byte) (int, []byte, error) {
	c.req = append(append(append(c.req[:0], "POST "...), target...), " HTTP/1.1\r\nHost: perfbench\r\nContent-Length: "...)
	c.req = append(strconv.AppendInt(c.req, int64(len(payload)), 10), "\r\n\r\n"...)
	return c.exchange(payload)
}

func (c *client) exchange(payload []byte) (int, []byte, error) {
	if c.nc == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, nil, fmt.Errorf("dial: %w", err)
		}
		c.nc, c.r = nc, bufio.NewReaderSize(nc, 64<<10)
	}
	var err error
	if payload == nil {
		_, err = c.nc.Write(c.req)
	} else {
		bufs := net.Buffers{c.req, payload}
		_, err = bufs.WriteTo(c.nc)
	}
	if err != nil {
		c.close()
		return 0, nil, fmt.Errorf("write: %w", err)
	}
	status, body, keep, err := c.readResponse()
	if err != nil || !keep {
		c.close()
	}
	return status, body, err
}

var errMalformed = errors.New("malformed response")

// readResponse reads one reply: status line, headers, body.
func (c *client) readResponse() (status int, body []byte, keep bool, err error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return 0, nil, false, fmt.Errorf("status line: %w", err)
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, false, fmt.Errorf("%w: status line %q", errMalformed, line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, nil, false, fmt.Errorf("%w: status line %q", errMalformed, line)
	}
	clen, chunked, keep := -1, false, true
	for {
		line, err = c.r.ReadSlice('\n')
		if err != nil {
			return 0, nil, false, fmt.Errorf("header: %w", err)
		}
		k, v, ok := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(":"))
		if !ok {
			break // the blank line ending the header
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if clen, err = strconv.Atoi(string(v)); err != nil {
				return 0, nil, false, fmt.Errorf("%w: Content-Length %q", errMalformed, v)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		case bytes.EqualFold(k, []byte("Connection")):
			keep = !bytes.EqualFold(v, []byte("close"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		err = c.readChunked()
	case clen >= 0:
		c.body = grow(c.body, clen)
		_, err = io.ReadFull(c.r, c.body)
	default:
		err = fmt.Errorf("%w: no body length", errMalformed)
	}
	if err != nil {
		return 0, nil, false, fmt.Errorf("body: %w", err)
	}
	return status, c.body, keep, nil
}

// readChunked appends a chunked body to c.body.
func (c *client) readChunked() error {
	for {
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			return err
		}
		size, _, _ := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(";"))
		n, err := strconv.ParseInt(string(size), 16, 64)
		if err != nil || n < 0 {
			return fmt.Errorf("%w: chunk size %q", errMalformed, size)
		}
		if n == 0 {
			_, err = c.r.Discard(2) // the trailer's blank line; no trailers are sent
			return err
		}
		old := len(c.body)
		c.body = grow(c.body, old+int(n))
		if _, err := io.ReadFull(c.r, c.body[old:]); err != nil {
			return err
		}
		if _, err := c.r.Discard(2); err != nil {
			return err
		}
	}
}

// grow returns b resized to n, reusing its array when it is big enough.
func grow(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	return append(b[:cap(b)], make([]byte, n-cap(b))...)
}
