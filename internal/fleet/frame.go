// Package fleet is the multi-process serving tier: a framed socket
// protocol that carries fingerprint-addressed chase jobs from a
// coordinator to cmd/chased workers and streams typed results and
// round-progress events back.
//
// # Protocol
//
// A connection carries a sequence of frames, each a fixed 8-byte header
// — magic "FL", version byte, message-kind byte, 4-byte big-endian body
// length — followed by the body. Bodies are varint/length-prefixed
// records written and read with internal/wire's shared Writer and
// Reader (canonical varints; every decode failure wraps ErrFrame). The
// client speaks strictly sequentially: one Register or Submit frame,
// then it reads frames until the terminal answer for that request
// (Registered, Result, or Error; a Submit may be preceded by any number
// of Progress frames). A Submit carries the job's service.RequestMeta
// (tenant, priority lane, qos.Policy) and its qos.Budget — atom, round
// and wall limits — in qos's own encodings, so every budget an
// in-process request runs under reaches the worker (protocol version 2).
// All three cross-process identities ride the frames unchanged: the
// database payload is an internal/wire snapshot (CanonicalKey-,
// order-, and Stats-preserving), the ontology is internal/compile's
// canonical fingerprint, and Σ itself travels as dlgp text
// (parser.FormatRules) during the cold-pull handshake.
//
// # Cold pull
//
// Workers start empty. A Submit addressing an unregistered fingerprint
// fails with the "unknown-ontology" error code; the coordinator then
// fetches the clauses from its OntologySource, ships them in a Register
// frame, verifies the worker's Registered ack reproduces the same
// fingerprint (the canonical fingerprint is process-stable, so any
// disagreement is corruption, not drift), and resubmits. Ontologies
// travel at most once per worker.
package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Version is the protocol version this package speaks (and the only one
// it accepts).
const Version = 2

// MaxFrameBytes caps a frame body. The cap bounds what a hostile or
// corrupt peer can make the decoder allocate; real snapshots of
// budget-bounded jobs sit orders of magnitude below it.
const MaxFrameBytes = 1 << 28

// headerSize is the fixed frame prelude: "FL", version, kind, 4-byte
// big-endian body length.
const headerSize = 8

// ErrFrame reports a frame this package cannot decode: bad magic, an
// unknown version, an oversized or truncated body, or a malformed
// message payload. It wraps the specific defect.
var ErrFrame = errors.New("fleet: corrupt frame")

// Message kinds. A request frame (Register, Submit) travels coordinator
// to worker; answer frames (Registered, Progress, Result, Error) travel
// back.
const (
	kindRegister   = 'R' // Register: dlgp rules text
	kindRegistered = 'A' // Registered: fingerprint ack
	kindSubmit     = 'J' // Submit: one chase job
	kindProgress   = 'P' // Progress: round-boundary Stats
	kindResult     = 'T' // Result: terminal job outcome
	kindError      = 'E' // Error: typed failure, terminal
)

// appendFrame appends one framed message to dst. The frame layer
// passes unknown kinds through (so a future version's frames still
// frame correctly); the dispatch layers reject them.
func appendFrame(dst []byte, kind byte, body []byte) []byte {
	dst = append(dst, 'F', 'L', Version, kind)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)))
	return append(dst, body...)
}

// writeFrame writes one framed message. A frame is written with a
// single Write call so concurrent writers on distinct frames never
// interleave partial headers (the server still serializes its writers;
// this keeps the failure mode of a future mistake bounded).
func writeFrame(w io.Writer, kind byte, body []byte) error {
	if len(body) > MaxFrameBytes {
		return fmt.Errorf("%w: %d-byte body exceeds the %d-byte frame cap", ErrFrame, len(body), MaxFrameBytes)
	}
	buf := make([]byte, 0, headerSize+len(body))
	_, err := w.Write(appendFrame(buf, kind, body))
	return err
}

// readFrame reads one frame. A clean EOF before any header byte returns
// io.EOF (the peer closed between requests); anything torn mid-frame is
// ErrFrame wrapping io.ErrUnexpectedEOF.
func readFrame(r io.Reader) (kind byte, body []byte, err error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: truncated header: %v", ErrFrame, err)
	}
	kind, n, err := parseHeader(hdr)
	if err != nil {
		return 0, nil, err
	}
	body = make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("%w: %d-byte body truncated: %v", ErrFrame, n, err)
	}
	return kind, body, nil
}

// parseHeader validates the fixed prelude and extracts kind and body
// length.
func parseHeader(hdr [headerSize]byte) (kind byte, n uint32, err error) {
	if hdr[0] != 'F' || hdr[1] != 'L' {
		return 0, 0, fmt.Errorf("%w: bad magic %q", ErrFrame, hdr[:2])
	}
	if hdr[2] != Version {
		return 0, 0, fmt.Errorf("%w: version %d, want %d", ErrFrame, hdr[2], Version)
	}
	n = binary.BigEndian.Uint32(hdr[4:])
	if n > MaxFrameBytes {
		return 0, 0, fmt.Errorf("%w: %d-byte body exceeds the %d-byte frame cap", ErrFrame, n, MaxFrameBytes)
	}
	return hdr[3], n, nil
}

// decodeFrame parses one whole frame from the front of data and returns
// the remainder — the pure-bytes surface FuzzFleetFrame drives (the
// socket paths share parseHeader and the message decoders with it).
func decodeFrame(data []byte) (kind byte, body []byte, rest []byte, err error) {
	if len(data) < headerSize {
		return 0, nil, nil, fmt.Errorf("%w: %d bytes, want at least a %d-byte header", ErrFrame, len(data), headerSize)
	}
	var hdr [headerSize]byte
	copy(hdr[:], data)
	kind, n, err := parseHeader(hdr)
	if err != nil {
		return 0, nil, nil, err
	}
	if uint32(len(data)-headerSize) < n {
		return 0, nil, nil, fmt.Errorf("%w: %d-byte body, %d bytes remain", ErrFrame, n, len(data)-headerSize)
	}
	body = data[headerSize : headerSize+int(n)]
	return kind, body, data[headerSize+int(n):], nil
}
