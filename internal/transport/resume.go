package transport

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"time"

	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/puzzle"
	"github.com/peace-mesh/peace/internal/symcrypto"
	"github.com/peace-mesh/peace/internal/wire"
)

// ResumeNonceSize is the length of the client and server nonces mixed
// into a resumed session's keys.
const ResumeNonceSize = 16

// ResumeRequest asks for a symmetric-only re-attach: the STEK-sealed
// ticket (opaque to the client), a fresh client nonce, a timestamp, and a
// MAC keyed by the ticket's resumption secret over all of it. The server
// needs no per-client state to verify — it opens the ticket, re-derives
// the MAC key from the embedded secret, and checks the tag.
type ResumeRequest struct {
	Ticket    []byte
	Nonce     [ResumeNonceSize]byte
	Timestamp time.Time
	Tag       [symcrypto.MACSize]byte

	// HasSolution and the echo triple carry the client-puzzle answer when
	// the router demands one on the resume path too. The fields are under
	// the request MAC, so a solution cannot be stripped from or grafted
	// onto someone else's resume in flight.
	HasSolution      bool
	Solution         uint64
	PuzzleIssuedAt   time.Time
	PuzzleDifficulty uint8
}

// macBody is the byte string the request tag covers.
func (m *ResumeRequest) macBody() []byte {
	w := wire.NewWriter(96 + len(m.Ticket))
	w.StringField("peace/resume-req:v2")
	w.BytesField(m.Ticket)
	w.BytesField(m.Nonce[:])
	w.Time(m.Timestamp)
	if m.HasSolution {
		w.Byte(1)
		w.Uint64(m.Solution)
		w.Time(m.PuzzleIssuedAt)
		w.Byte(m.PuzzleDifficulty)
	} else {
		w.Byte(0)
	}
	return w.Bytes()
}

// sign computes and installs the request tag.
func (m *ResumeRequest) sign(secret []byte) {
	m.Tag = symcrypto.MAC(resumeMACKey(secret), 0, m.macBody())
}

// verify checks the request tag against the ticket's secret.
func (m *ResumeRequest) verify(secret []byte) error {
	return symcrypto.VerifyMAC(resumeMACKey(secret), 0, m.macBody(), m.Tag)
}

// Marshal encodes the resume request.
func (m *ResumeRequest) Marshal() []byte {
	w := wire.NewWriter(128 + len(m.Ticket))
	w.BytesField(m.Ticket)
	w.BytesField(m.Nonce[:])
	w.Time(m.Timestamp)
	w.BytesField(m.Tag[:])
	if m.HasSolution {
		w.Byte(1)
		w.Uint64(m.Solution)
		w.Time(m.PuzzleIssuedAt)
		w.Byte(m.PuzzleDifficulty)
	} else {
		w.Byte(0)
	}
	return w.Bytes()
}

// UnmarshalResumeRequest decodes a resume request, copying the ticket so
// the result outlives the input buffer.
func UnmarshalResumeRequest(data []byte) (*ResumeRequest, error) {
	m := &ResumeRequest{}
	if err := UnmarshalResumeRequestInto(data, m); err != nil {
		return nil, err
	}
	m.Ticket = append([]byte(nil), m.Ticket...)
	return m, nil
}

// UnmarshalResumeRequestInto decodes a resume request into m without
// allocating: m.Ticket aliases data, so the caller must finish with m
// before reusing the receive buffer. This is the hot decode of the
// sharded resume path.
func UnmarshalResumeRequestInto(data []byte, m *ResumeRequest) error {
	r := wire.NewReader(data)
	tk, err := r.BytesField()
	if err != nil {
		return err
	}
	m.Ticket = tk
	nonce, err := r.BytesField()
	if err != nil {
		return err
	}
	if len(nonce) != ResumeNonceSize {
		return fmt.Errorf("transport: resume nonce size %d", len(nonce))
	}
	copy(m.Nonce[:], nonce)
	if m.Timestamp, err = r.Time(); err != nil {
		return err
	}
	tag, err := r.BytesField()
	if err != nil {
		return err
	}
	if len(tag) != symcrypto.MACSize {
		return fmt.Errorf("transport: resume tag size %d", len(tag))
	}
	copy(m.Tag[:], tag)
	has, err := r.Byte()
	if err != nil {
		return err
	}
	if has > 1 {
		return fmt.Errorf("transport: resume solution flag %d", has)
	}
	m.HasSolution = has == 1
	if m.HasSolution {
		if m.Solution, err = r.Uint64(); err != nil {
			return err
		}
		if m.PuzzleIssuedAt, err = r.Time(); err != nil {
			return err
		}
		if m.PuzzleDifficulty, err = r.Byte(); err != nil {
			return err
		}
	} else {
		m.Solution, m.PuzzleIssuedAt, m.PuzzleDifficulty = 0, time.Time{}, 0
	}
	return r.Finish()
}

// ResumeConfirm is the server's answer to a ResumeRequest. Dedup echoes
// the exchange identifier so the client can match the reply; Ciphertext
// is sealed under the NEW session's encryption key (AAD = new session
// id), so a valid confirm proves the server derived the same keys — key
// confirmation exactly as M.3 provides for the full handshake.
type ResumeConfirm struct {
	Dedup      core.SessionID
	Nonce      [ResumeNonceSize]byte // server nonce
	Ciphertext []byte
}

// Marshal encodes the resume confirm.
func (m *ResumeConfirm) Marshal() []byte {
	w := wire.NewWriter(96 + len(m.Ciphertext))
	w.BytesField(m.Dedup[:])
	w.BytesField(m.Nonce[:])
	w.BytesField(m.Ciphertext)
	return w.Bytes()
}

// UnmarshalResumeConfirm decodes a resume confirm.
func UnmarshalResumeConfirm(data []byte) (*ResumeConfirm, error) {
	r := wire.NewReader(data)
	m := &ResumeConfirm{}
	d, err := r.BytesField()
	if err != nil {
		return nil, err
	}
	if len(d) != len(m.Dedup) {
		return nil, fmt.Errorf("transport: resume dedup size %d", len(d))
	}
	copy(m.Dedup[:], d)
	nonce, err := r.BytesField()
	if err != nil {
		return nil, err
	}
	if len(nonce) != ResumeNonceSize {
		return nil, fmt.Errorf("transport: resume nonce size %d", len(nonce))
	}
	copy(m.Nonce[:], nonce)
	ct, err := r.BytesField()
	if err != nil {
		return nil, err
	}
	m.Ciphertext = append([]byte(nil), ct...)
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// resumeOKTag versions the sealed confirm body.
const resumeOKTag = "peace/resume-ok:v1"

// resumeOK is the plaintext inside a ResumeConfirm: the answering router,
// its boot epoch (the resume-path analogue of the beacon's authenticated
// restart signal), the echoed client nonce, and the reissued ticket for
// the next re-attach.
type resumeOK struct {
	RouterID  string
	BootEpoch uint64
	Nonce     [ResumeNonceSize]byte // echoed client nonce
	Ticket    []byte
}

func (b *resumeOK) marshal() []byte {
	w := wire.NewWriter(96 + len(b.Ticket))
	w.StringField(resumeOKTag)
	w.StringField(b.RouterID)
	w.Uint64(b.BootEpoch)
	w.BytesField(b.Nonce[:])
	w.BytesField(b.Ticket)
	return w.Bytes()
}

func unmarshalResumeOK(data []byte) (*resumeOK, error) {
	r := wire.NewReader(data)
	tag, err := r.StringField()
	if err != nil {
		return nil, err
	}
	if tag != resumeOKTag {
		return nil, fmt.Errorf("transport: resume body tag %q", tag)
	}
	b := &resumeOK{}
	if b.RouterID, err = r.StringField(); err != nil {
		return nil, err
	}
	if b.BootEpoch, err = r.Uint64(); err != nil {
		return nil, err
	}
	nonce, err := r.BytesField()
	if err != nil {
		return nil, err
	}
	if len(nonce) != ResumeNonceSize {
		return nil, fmt.Errorf("transport: resume body nonce size %d", len(nonce))
	}
	copy(b.Nonce[:], nonce)
	tk, err := r.BytesField()
	if err != nil {
		return nil, err
	}
	b.Ticket = append([]byte(nil), tk...)
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return b, nil
}

// resumeTicket is the client's held resumption state: the opaque sealed
// blob, the secret it re-derived locally, and the session the secret
// belongs to.
type resumeTicket struct {
	blob   []byte
	secret []byte
	prev   core.SessionID
}

// HasTicket reports whether the client holds resumption state.
func (c *Client) HasTicket() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ticket != nil
}

// storeTicket records resumption state minted by an attach or resume.
func (c *Client) storeTicket(blob []byte, sess *core.Session) {
	if len(blob) == 0 || sess == nil {
		return
	}
	t := &resumeTicket{blob: blob, secret: sess.ResumptionSecret(), prev: sess.ID}
	c.mu.Lock()
	c.ticket = t
	c.mu.Unlock()
	c.stats.ticketsHeld.Store(1)
}

// clearTicket drops held resumption state (after the server refused it).
func (c *Client) clearTicket() {
	c.mu.Lock()
	c.ticket = nil
	c.mu.Unlock()
	c.stats.ticketsHeld.Store(0)
}

func (c *Client) heldTicket() *resumeTicket {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ticket
}

// Resume re-attaches over the symmetric-only ticket path: one round trip,
// no beacon, no revocation sync, no group signature. It fails with
// ErrNoTicket when no ticket is held and ErrTicketUnusable (or
// core.ErrRevocationStale) when the server refuses the ticket — the
// caller falls back to the full Attach. On success the reissued ticket
// replaces the spent one, so steady-state churn needs one full handshake
// per STEK-rotation period, not per re-attach.
func (c *Client) Resume(ctx context.Context) (*core.Session, error) {
	t := c.heldTicket()
	if t == nil {
		return nil, ErrNoTicket
	}
	c.stats.resumeAttempts.Add(1)
	resumeStart := time.Now()

	var sess *core.Session
	var body *resumeOK
	var challenge *puzzle.Puzzle
	for tries := 0; ; tries++ {
		err := c.resumeOnce(ctx, t, challenge, &sess, &body)
		if err == nil {
			break
		}
		var pc *puzzleChallengeError
		if errors.As(err, &pc) && tries < maxPuzzleRetries {
			challenge = pc.p
			continue
		}
		return nil, err
	}

	c.user.AdoptSession(sess)
	c.setSession(sess, body.BootEpoch)
	c.storeTicket(body.Ticket, sess)
	c.stats.resumeSuccesses.Add(1)
	// body.RouterID arrived inside the key-confirmed sealed body, so it is
	// as authenticated as the resume itself: a different ID than the
	// session's establisher means this resume was a roaming handoff.
	elapsed := time.Since(resumeStart)
	if prev := c.lastRouter(); prev != "" && body.RouterID != "" && body.RouterID != prev {
		c.stats.handoffLatency.Observe(elapsed)
	} else {
		c.stats.resumeLatency.Observe(elapsed)
	}
	if body.RouterID != "" {
		c.setLastRouterID(body.RouterID)
	}
	return sess, nil
}

// resumeOnce runs a single resume exchange. Each call draws a FRESH nonce:
// the server caches its rejects by (ticket, nonce), so a puzzle retry on
// the old nonce would only replay the cached RejectPuzzle. A non-nil
// challenge is solved (within budget) and attached under the request MAC.
func (c *Client) resumeOnce(ctx context.Context, t *resumeTicket, challenge *puzzle.Puzzle, sessOut **core.Session, bodyOut **resumeOK) error {
	req := &ResumeRequest{Ticket: t.blob, Timestamp: time.Now()}
	if _, err := rand.Read(req.Nonce[:]); err != nil {
		return fmt.Errorf("transport: resume nonce: %w", err)
	}
	if challenge != nil {
		sol, ok := c.solvePuzzle(challenge)
		if !ok {
			return fmt.Errorf("transport: resume: %w: solve budget exhausted at difficulty %d",
				core.ErrPuzzleRequired, challenge.Difficulty)
		}
		req.HasSolution = true
		req.Solution = sol
		req.PuzzleIssuedAt = challenge.IssuedAt
		req.PuzzleDifficulty = challenge.Difficulty
	}
	req.sign(t.secret)
	frame, err := EncodeMessage(req)
	if err != nil {
		return err
	}
	dedup := resumeDedupID(t.blob, req.Nonce[:])

	return c.exchange(ctx, frame, func(kind Kind, payload []byte) (bool, error) {
		switch kind {
		case KindResumeConfirm:
			m, err := UnmarshalResumeConfirm(payload)
			if err != nil {
				c.stats.decodeErrors.Add(1)
				return false, nil
			}
			if m.Dedup != dedup {
				c.stats.unhandled.Add(1)
				return false, nil
			}
			// Derive the candidate session, then demand key confirmation:
			// only a server that opened the ticket and derived the same
			// keys can seal a body that opens under the new session id.
			cand := core.ResumeSession(t.prev, t.secret, req.Nonce[:], m.Nonce[:], "router", time.Now())
			pt, err := cand.OpenData(&core.DataFrame{
				Session: cand.ID, Seq: 0, Encrypted: true, Payload: m.Ciphertext,
			})
			if err != nil {
				c.stats.decodeErrors.Add(1)
				return false, nil
			}
			b, err := unmarshalResumeOK(pt)
			if err != nil || b.Nonce != req.Nonce {
				c.stats.decodeErrors.Add(1)
				return false, nil
			}
			*sessOut, *bodyOut = cand, b
			return true, nil
		case KindReject:
			rej, err := UnmarshalReject(payload)
			if err != nil {
				c.stats.decodeErrors.Add(1)
				return false, nil
			}
			if rej.Session != dedup {
				c.stats.unhandled.Add(1)
				return false, nil
			}
			c.stats.rejects.Add(1)
			if rej.Code.Transient() {
				return false, errTransientReject
			}
			if rej.Code == RejectPuzzle && rej.Puzzle != nil {
				return false, &puzzleChallengeError{p: rej.Puzzle}
			}
			return false, fmt.Errorf("transport: router refused resume (%s): %w", rej.Reason, rej.Code.Err())
		default:
			c.stats.unhandled.Add(1)
			return false, nil
		}
	})
}

// AttachOrResume tries the cheap ticket path first and falls back to the
// full M.1–M.3 handshake when no ticket is held or the server refused it.
// This is the re-attach policy Maintain runs after every detected restart
// or dead peer.
func (c *Client) AttachOrResume(ctx context.Context) (*core.Session, error) {
	if c.HasTicket() {
		sess, err := c.Resume(ctx)
		if err == nil {
			return sess, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		// Whatever the refusal (rotated STEK, stale epochs, timeout), the
		// held ticket did not work; drop it and let the full attach mint a
		// fresh one.
		c.clearTicket()
		c.stats.resumeFallbacks.Add(1)
	}
	return c.Attach(ctx)
}
