package daemon

import (
	"encoding/json"
	"fmt"
	"net"
	"time"

	"nvramfs/internal/trace"
)

// Client is a blocking, single-stream protocol client: one request in
// flight at a time. The load generator opens several for parallelism.
type Client struct {
	conn    net.Conn
	timeout time.Duration
	buf     []byte // the last reply's frame
	out     []byte // the next request's frame
	// Org is the organization the server announced in the handshake.
	Org string
}

// Dial connects, performs the handshake, and returns a ready client.
// timeout bounds every subsequent request round trip (0 means 30s).
func Dial(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, timeout: timeout}
	conn.SetDeadline(time.Now().Add(timeout))
	c.out = append(beginFrame(c.out), ftHello, protoVersion)
	if err := writeFrame(conn, c.out); err != nil {
		conn.Close()
		return nil, err
	}
	p, err := readFrame(conn, &c.buf)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if len(p) < 2 || p[0] != ftHelloOK || p[1] != protoVersion {
		conn.Close()
		return nil, fmt.Errorf("daemon: bad handshake reply")
	}
	c.Org = string(p[2:])
	return c, nil
}

// Send submits one event and returns the server's verdict. The event's
// Time field is advisory — the server re-stamps it with its own clock.
func (c *Client) Send(e trace.Event) (Status, error) {
	c.conn.SetDeadline(time.Now().Add(c.timeout))
	c.out = trace.AppendEvent(append(beginFrame(c.out), ftEvent), e)
	if err := writeFrame(c.conn, c.out); err != nil {
		return 0, err
	}
	p, err := readFrame(c.conn, &c.buf)
	if err != nil {
		return 0, err
	}
	if len(p) != 2 || p[0] != ftResult {
		return 0, fmt.Errorf("daemon: unexpected reply frame type %d", p[0])
	}
	return Status(p[1]), nil
}

// Stats fetches the server's snapshot.
func (c *Client) Stats() (Snapshot, error) {
	c.conn.SetDeadline(time.Now().Add(c.timeout))
	c.out = append(beginFrame(c.out), ftStatsReq)
	if err := writeFrame(c.conn, c.out); err != nil {
		return Snapshot{}, err
	}
	p, err := readFrame(c.conn, &c.buf)
	if err != nil {
		return Snapshot{}, err
	}
	if len(p) < 1 || p[0] != ftStats {
		return Snapshot{}, fmt.Errorf("daemon: unexpected reply frame type %d", p[0])
	}
	var snap Snapshot
	if err := json.Unmarshal(p[1:], &snap); err != nil {
		return Snapshot{}, err
	}
	return snap, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
