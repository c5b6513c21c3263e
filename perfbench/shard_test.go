package main

import (
	"bytes"
	"io"
	"net"
	"sync/atomic"
	"testing"

	"twoview/internal/wire"
)

// frames encodes a few small protocol messages back to back.
func frames(t *testing.T) []byte {
	t.Helper()
	var buf []byte
	var err error
	for _, m := range []wire.Msg{
		&wire.HelloAck{Part: 1, Term: 2, Need: 1},
		&wire.Crash{Part: 0, Term: 3},
		&wire.Crash{Part: 1, Term: 4},
	} {
		if buf, err = wire.Encode(buf, m); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

func TestCopyFramesCountsWholeFrames(t *testing.T) {
	in := frames(t)
	var out bytes.Buffer
	var nFrames, nBytes atomic.Int64
	if err := copyFrames(&out, bytes.NewReader(in), &nFrames, &nBytes); err != nil {
		t.Fatal(err)
	}
	if nFrames.Load() != 3 || nBytes.Load() != int64(len(in)) {
		t.Errorf("counted %d frames, %d bytes; want 3, %d", nFrames.Load(), nBytes.Load(), len(in))
	}
	if !bytes.Equal(out.Bytes(), in) {
		t.Errorf("forwarded bytes differ from the input")
	}
}

func TestCopyFramesRejectsTruncationAndGarbage(t *testing.T) {
	in := frames(t)
	var nFrames, nBytes atomic.Int64
	if err := copyFrames(io.Discard, bytes.NewReader(in[:len(in)-1]), &nFrames, &nBytes); err == nil {
		t.Errorf("a frame cut short was accepted")
	}
	if nFrames.Load() != 2 {
		t.Errorf("counted %d frames before the cut one, want 2", nFrames.Load())
	}
	bad := append([]byte(nil), in...)
	bad[4] = wire.Version + 1
	if err := copyFrames(io.Discard, bytes.NewReader(bad), &nFrames, &nBytes); err == nil {
		t.Errorf("a frame with a foreign version was accepted")
	}
}

// TestProxyCountsBothDirections runs the proxy in front of an echo
// server: every frame crosses it once each way.
func TestProxyCountsBothDirections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c)
	}()
	p, err := startProxy(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", p.addr())
	if err != nil {
		t.Fatal(err)
	}
	in := frames(t)
	if _, err := conn.Write(in); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, len(in))
	if _, err := io.ReadFull(conn, back); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	p.close()
	if !bytes.Equal(back, in) {
		t.Errorf("echo through the proxy changed the bytes")
	}
	if got := p.frames.Load(); got != 6 {
		t.Errorf("proxy counted %d frames, want 6", got)
	}
	if got := p.bytes.Load(); got != 2*int64(len(in)) {
		t.Errorf("proxy counted %d bytes, want %d", got, 2*len(in))
	}
}
