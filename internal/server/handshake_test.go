package server

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/runtime"
	"locksafe/internal/wire"
	"locksafe/pkg/client"
)

// TestServerHandshake is the handshake contract, over raw connections:
// the first frame must be the JSON hello naming wire.Version; it is
// answered in JSON and everything after it is binary. Any other version
// is refused `version` — in JSON, naming the version the server speaks,
// so a retired client can read why — and anything else in first place
// is refused `bad-request`; either way the connection is closed with no
// session opened. A hello after the handshake is refused per request
// and harms nothing.
func TestServerHandshake(t *testing.T) {
	srv, addr := startServer(t, model.NewState("a"), runtime.Config{Policy: policy.TwoPhase{}})
	defer srv.Shutdown(time.Second)

	hello := func(version int) func(*rawConn) wire.Response {
		return func(c *rawConn) wire.Response {
			return c.roundTrip(wire.Request{Op: wire.OpHello, Version: version})
		}
	}
	for _, tc := range []struct {
		name    string
		first   func(*rawConn) wire.Response // the connection's first frame
		code    string                       // "" = accepted
		errText string
	}{
		{"hello v4", hello(wire.Version), "", ""},
		{"hello v2", hello(2), wire.CodeVersion, "version 4"},
		{"hello v3", hello(3), wire.CodeVersion, "version 4"},
		{"hello v99", hello(99), wire.CodeVersion, "version 4"},
		{"open first", func(c *rawConn) wire.Response {
			return c.roundTrip(wire.Request{Op: wire.OpOpen, Name: "T"})
		}, wire.CodeBadReq, "hello"},
		{"binary frame first", func(c *rawConn) wire.Response {
			// The request leaves in binary; the refusal still arrives in
			// JSON, the only thing a pre-hello peer can be assumed to read.
			c.wr.SetCodec(wire.CodecBinary)
			return c.roundTrip(wire.Request{Op: wire.OpStats})
		}, wire.CodeBadReq, "hello"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := openRaw(t, addr)
			defer c.close()
			resp := tc.first(c)
			if tc.code != "" {
				if resp.OK || resp.Code != tc.code || !strings.Contains(resp.Err, tc.errText) {
					t.Fatalf("first frame answered %+v, want a %s refusal naming %q", resp, tc.code, tc.errText)
				}
				c.expectEOF()
				if n := srv.Engine().OpenSessions(); n != 0 {
					t.Fatalf("refused handshake left %d open sessions", n)
				}
				return
			}
			if !resp.OK || resp.Version != wire.Version || resp.Policy != "2PL" {
				t.Fatalf("hello answered %+v, want OK with version %d and policy 2PL", resp, wire.Version)
			}
			c.rd.SetCodec(wire.CodecBinary)
			c.wr.SetCodec(wire.CodecBinary)
			if stats := c.roundTrip(wire.Request{Op: wire.OpStats}); !stats.OK || stats.Stats == nil {
				t.Fatalf("binary stats after the hello = %+v", stats)
			}
		})
	}

	t.Run("second hello", func(t *testing.T) {
		c := dialRaw(t, addr)
		defer c.close()
		table, csteps := model.CompactTxn([]model.Step{model.LX("a"), model.W("a"), model.UX("a")})
		open := c.roundTrip(wire.Request{Op: wire.OpOpen, Name: "T", Table: table, CSteps: csteps})
		if !open.OK {
			t.Fatalf("open refused: %+v", open)
		}
		if resp := c.roundTrip(wire.Request{Op: wire.OpStep, SID: open.SID, CStep: csteps[0], HasCompact: true}); !resp.OK {
			t.Fatalf("step refused: %+v", resp)
		}
		again := c.roundTrip(wire.Request{Op: wire.OpHello, Version: wire.Version})
		if again.OK || again.Code != wire.CodeBadReq || again.ID != c.id {
			t.Fatalf("second hello = %+v, want a bad-request refusal of request %d", again, c.id)
		}
		// The connection and the session it holds carry on.
		for i, cs := range csteps[1:] {
			if resp := c.roundTrip(wire.Request{Op: wire.OpStep, SID: open.SID, CStep: cs, HasCompact: true}); !resp.OK {
				t.Fatalf("step %d after the second hello refused: %+v", i+1, resp)
			}
		}
		if resp := c.roundTrip(wire.Request{Op: wire.OpCommit, SID: open.SID}); !resp.OK {
			t.Fatalf("commit after the second hello refused: %+v", resp)
		}
	})

	// The client's side of a refusal: a server of another vintage —
	// simulated by a listener answering any hello with `version` — makes
	// Dial fail with ErrVersion, not a hang or a codec error.
	t.Run("client sees ErrVersion", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			defer nc.Close()
			reqs, err := wire.NewReader(nc).ReadRequests()
			if err != nil {
				return
			}
			w := wire.NewWriter(nc)
			w.WriteResponses([]wire.Response{{ID: reqs[0].ID, Code: wire.CodeVersion, Err: "server speaks protocol version 5 only"}})
			w.Flush()
		}()
		if _, err := client.Dial(ln.Addr().String()); !errors.Is(err, client.ErrVersion) {
			t.Fatalf("dial of a version-refusing server = %v, want ErrVersion", err)
		}
	})
}
