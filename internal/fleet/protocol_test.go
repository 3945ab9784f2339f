package fleet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/compile"
	"repro/internal/parser"
	"repro/internal/service"
	"repro/internal/wire"
)

// TestFrameDecodeAdversarial drives decodeFrame through hostile inputs:
// every failure must be a typed ErrFrame, never a panic or a silent
// wrong answer.
func TestFrameDecodeAdversarial(t *testing.T) {
	valid := appendFrame(nil, kindError, encodeError(errorMsg{Code: "internal", Message: "x"}))
	oversize := make([]byte, headerSize)
	oversize[0], oversize[1], oversize[2], oversize[3] = 'F', 'L', Version, kindError
	binary.BigEndian.PutUint32(oversize[4:], MaxFrameBytes+1)
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrFrame},
		{"torn header", valid[:headerSize-1], ErrFrame},
		{"torn body", valid[:len(valid)-1], ErrFrame},
		{"bad magic", append([]byte("XX"), valid[2:]...), ErrFrame},
		{"bad version", func() []byte { b := bytes.Clone(valid); b[2] = Version + 1; return b }(), ErrFrame},
		{"oversize body", oversize, ErrFrame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, _, err := decodeFrame(tc.data); !errors.Is(err, tc.want) {
				t.Fatalf("decodeFrame(%q) err = %v, want %v", tc.data, err, tc.want)
			}
		})
	}

	// A valid frame followed by trailing bytes hands back the rest.
	kind, body, rest, err := decodeFrame(append(bytes.Clone(valid), 0xFF))
	if err != nil || kind != kindError || len(rest) != 1 {
		t.Fatalf("decodeFrame with rest = (%c, %d, %d, %v)", kind, len(body), len(rest), err)
	}
}

// TestMessageDecodeAdversarial: message bodies reject truncation,
// trailing garbage, unknown flag bits, and out-of-range enums.
func TestMessageDecodeAdversarial(t *testing.T) {
	sub := encodeSubmit(Job{Name: "n", Meta: service.RequestMeta{Tenant: "t"}, Snapshot: []byte("s"), Deltas: [][]byte{[]byte("d")}})
	if _, err := decodeSubmit(sub[:len(sub)-1]); err == nil {
		t.Fatal("truncated submit decoded")
	}
	if _, err := decodeSubmit(append(bytes.Clone(sub), 0)); err == nil {
		t.Fatal("submit with trailing bytes decoded")
	}
	// Rebuild with a hostile flags value through the writer.
	var w wire.Writer
	w.Str("n")
	w.Str("t")
	w.Varint(0)
	w.Raw(new(compile.Fingerprint)[:])
	w.Byte(0)      // variant
	w.Uvarint(0)   // maxAtoms
	w.Uvarint(0)   // maxRounds
	w.Uvarint(0)   // wall
	w.Uvarint(0)   // workers
	w.Byte(0)      // qos mode
	w.Uvarint(0)   // qos deadline
	w.Uvarint(0)   // qos rounds
	w.Byte(0)      // qos learn
	w.Byte(1 << 7) // unknown flag bit
	w.Blob(nil)
	w.Uvarint(0)
	if _, err := decodeSubmit(w.Buf); err == nil {
		t.Fatal("submit with unknown flag bit decoded")
	}
	var w2 wire.Writer
	w2.Str("n")
	w2.Str("t")
	w2.Varint(0)
	w2.Raw(new(compile.Fingerprint)[:])
	w2.Byte(9) // unknown variant
	if _, err := decodeSubmit(w2.Buf); err == nil {
		t.Fatal("submit with unknown variant decoded")
	}
	var w3 wire.Writer
	w3.Str("n")
	w3.Str("t")
	w3.Varint(0)
	w3.Raw(new(compile.Fingerprint)[:])
	w3.Byte(0)    // variant
	w3.Uvarint(0) // maxAtoms
	w3.Uvarint(0) // maxRounds
	w3.Uvarint(0) // wall
	w3.Uvarint(0) // workers
	w3.Byte(9)    // unknown qos mode
	if _, err := decodeSubmit(w3.Buf); err == nil {
		t.Fatal("submit with unknown QoS mode decoded")
	}
	if _, err := decodeResult([]byte{0xFF, 0x01}); err == nil {
		t.Fatal("result with unknown flags decoded")
	}
	if _, err := decodeResult([]byte{0x01, 0x09}); err == nil {
		t.Fatal("result with unknown budget source decoded")
	}
	if _, err := decodeRegistered([]byte{1, 2}); err == nil {
		t.Fatal("short registered ack decoded")
	}
}

// TestServerUnknownKind: a frame with an unexpected kind gets one typed
// bad-request answer, then the server hangs up.
func TestServerUnknownKind(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, Cache: compile.NewCache(0)})
	defer svc.Close()
	srv := NewServer(svc)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()

	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// kindResult is server-to-client only; a server must not accept it.
	if err := writeFrame(conn, kindResult, nil); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	kind, body, err := readFrame(r)
	if err != nil || kind != kindError {
		t.Fatalf("answer = (%c, %v), want error frame", kind, err)
	}
	m, err := decodeError(body)
	if err != nil {
		t.Fatal(err)
	}
	if m.Code != service.KindBadRequest.String() || !strings.Contains(m.Message, "unknown message kind") {
		t.Fatalf("error frame = %+v, want bad-request/unknown kind", m)
	}
	if _, _, err := readFrame(r); err != io.EOF {
		t.Fatalf("connection still open after protocol violation: %v", err)
	}
}

// TestServerTornFrame: a truncated frame mid-stream drops the
// connection without an answer (framing can't be trusted), and the
// listener survives to serve the next client.
func TestServerTornFrame(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, Cache: compile.NewCache(0)})
	defer svc.Close()
	srv := NewServer(svc)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()

	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	full := appendFrame(nil, kindRegister, encodeRegister(registerMsg{Rules: "p(X) -> q(X)."}))
	if _, err := conn.Write(full[:len(full)-3]); err != nil {
		t.Fatal(err)
	}
	conn.Close() // tear mid-frame
	// The server must still serve a well-formed client afterwards.
	conn2, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := writeFrame(conn2, kindRegister, encodeRegister(registerMsg{Rules: "p(X) -> q(X)."})); err != nil {
		t.Fatal(err)
	}
	kind, body, err := readFrame(bufio.NewReader(conn2))
	if err != nil || kind != kindRegistered {
		t.Fatalf("answer after torn peer = (%c, %v), want registered ack", kind, err)
	}
	if _, err := decodeRegistered(body); err != nil {
		t.Fatal(err)
	}
}

// fakeWorker accepts fleet connections and runs script against each,
// for provoking coordinator-side failure handling.
func fakeWorker(t *testing.T, script func(conn net.Conn, r *bufio.Reader)) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				script(conn, bufio.NewReader(conn))
			}()
		}
	}()
	return lis.Addr().String()
}

// TestCoordinatorMidStreamDisconnect: a worker that dies after
// accepting the submit (and even after streaming progress) surfaces as
// a typed transport failure once the replay budget is spent.
func TestCoordinatorMidStreamDisconnect(t *testing.T) {
	addr := fakeWorker(t, func(conn net.Conn, r *bufio.Reader) {
		if _, _, err := readFrame(r); err != nil {
			return
		}
		// Stream one progress frame, then hang up before the result.
		writeFrame(conn, kindProgress, encodeProgress(chase.Stats{Rounds: 1}))
	})
	coord, err := NewCoordinator(Config{Workers: []string{addr}, DialAttempts: 2, DialBackoff: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	var events int
	tk, err := coord.Submit(Job{Name: "torn", Progress: func(s chase.Stats) { events++ }})
	if err != nil {
		t.Fatal(err)
	}
	res := tk.Wait()
	if !errors.Is(res.Err, ErrTransport) {
		t.Fatalf("mid-stream disconnect err = %v, want ErrTransport", res.Err)
	}
	var se *service.Error
	if !errors.As(res.Err, &se) || se.Kind != service.KindUnavailable {
		t.Fatalf("mid-stream disconnect err = %v, want KindUnavailable", res.Err)
	}
	if events == 0 {
		t.Fatal("progress before the tear was dropped")
	}
}

// TestCoordinatorGarbageAnswer: a worker that answers with a
// non-protocol kind is a transport failure, not a hang.
func TestCoordinatorGarbageAnswer(t *testing.T) {
	addr := fakeWorker(t, func(conn net.Conn, r *bufio.Reader) {
		for {
			if _, _, err := readFrame(r); err != nil {
				return
			}
			if err := writeFrame(conn, kindSubmit, nil); err != nil {
				return
			}
		}
	})
	coord, err := NewCoordinator(Config{Workers: []string{addr}, DialAttempts: 2, DialBackoff: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	tk, err := coord.Submit(Job{Name: "garbage"})
	if err != nil {
		t.Fatal(err)
	}
	if res := tk.Wait(); !errors.Is(res.Err, ErrTransport) {
		t.Fatalf("garbage answer err = %v, want ErrTransport", res.Err)
	}
}

// TestCoordinatorColdPullFingerprintMismatch: a worker acking the
// cold-pull Register with the wrong fingerprint means the ontology was
// corrupted in flight; the coordinator must refuse to resubmit to it.
func TestCoordinatorColdPullFingerprintMismatch(t *testing.T) {
	prog, err := parser.Parse("p(a). p(X) -> q(X).")
	if err != nil {
		t.Fatal(err)
	}
	local := service.New(service.Config{Workers: 1, Cache: compile.NewCache(0)})
	defer local.Close()
	h, err := local.RegisterOntology(prog.Rules)
	if err != nil {
		t.Fatal(err)
	}
	addr := fakeWorker(t, func(conn net.Conn, r *bufio.Reader) {
		for {
			kind, _, err := readFrame(r)
			if err != nil {
				return
			}
			switch kind {
			case kindSubmit:
				writeFrame(conn, kindError, encodeError(errorMsg{
					Code: service.KindUnknownOntology.String(), Message: "unknown ontology",
				}))
			case kindRegister:
				writeFrame(conn, kindRegistered, encodeRegistered(registeredMsg{})) // zero fingerprint: wrong
			}
		}
	})
	coord, err := NewCoordinator(Config{Workers: []string{addr}, Source: local, DialAttempts: 2, DialBackoff: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	tk, err := coord.Submit(Job{Name: "mismatch", Fingerprint: h.Fingerprint, Snapshot: wire.EncodeSnapshot(prog.Database)})
	if err != nil {
		t.Fatal(err)
	}
	if res := tk.Wait(); !errors.Is(res.Err, ErrTransport) {
		t.Fatalf("fingerprint mismatch err = %v, want ErrTransport", res.Err)
	}
}
