package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"spreadnshare/internal/svc"
)

// Client speaks the daemon's async protocol: accepted mutations are
// polled to resolution, reads are plain GETs. A zero PollInterval polls
// every 2ms — tight enough that submission-latency measurements are
// dominated by the daemon, not the poller.
type Client struct {
	Base         string
	HTTP         *http.Client
	PollInterval time.Duration
}

// NewClient builds a client for a daemon base URL (no trailing slash).
func NewClient(base string) *Client {
	return &Client{Base: base, HTTP: &http.Client{Timeout: 30 * time.Second}}
}

func (c *Client) poll() time.Duration {
	if c.PollInterval > 0 {
		return c.PollInterval
	}
	return 2 * time.Millisecond
}

func (c *Client) do(req *http.Request, want int, out any) error {
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		var e struct {
			Error string `json:"error"`
		}
		// Best-effort: the status code alone is a usable error; a body
		// that is not the error shape just leaves Msg empty.
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return &StatusError{Code: resp.StatusCode, Msg: e.Error}
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// StatusError is a non-2xx daemon response.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("api: status %d: %s", e.Code, e.Msg)
}

// Submit accepts a job spec asynchronously, returning the pending op.
func (c *Client) Submit(spec svc.JobSpec) (Op, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return Op{}, err
	}
	req, err := http.NewRequest(http.MethodPost, c.Base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return Op{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	var op Op
	if err := c.do(req, http.StatusAccepted, &op); err != nil {
		return Op{}, err
	}
	return op, nil
}

// Op fetches one op's current state.
func (c *Client) Op(id string) (Op, error) {
	req, err := http.NewRequest(http.MethodGet, c.Base+"/v1/ops/"+id, nil)
	if err != nil {
		return Op{}, err
	}
	var op Op
	if err := c.do(req, http.StatusOK, &op); err != nil {
		return Op{}, err
	}
	return op, nil
}

// WaitOp polls an op until the scheduler goroutine resolves it. A failed
// op returns an error carrying the daemon's message.
func (c *Client) WaitOp(id string) (Op, error) {
	for {
		op, err := c.Op(id)
		if err != nil {
			return Op{}, err
		}
		switch op.Status {
		case OpDone:
			return op, nil
		case OpFailed:
			return op, fmt.Errorf("api: op %s failed: %s", id, op.Error)
		case OpPending:
			// Not resolved yet: fall through to the poll sleep.
		default:
			// Polling on for a status with no arm would never return.
			return op, fmt.Errorf("api: op %s has unknown status %q", id, op.Status)
		}
		time.Sleep(c.poll())
	}
}

// SubmitWait submits and polls to resolution, returning the admitted
// job's ID.
func (c *Client) SubmitWait(spec svc.JobSpec) (int, error) {
	op, err := c.Submit(spec)
	if err != nil {
		return -1, err
	}
	op, err = c.WaitOp(op.ID)
	if err != nil {
		return -1, err
	}
	return op.JobID, nil
}

// Job fetches a job by numeric ID.
func (c *Client) Job(id int) (JobView, error) {
	return c.jobByKey(fmt.Sprintf("%d", id))
}

// JobByName fetches a job by its idempotency name.
func (c *Client) JobByName(name string) (JobView, error) {
	return c.jobByKey(name)
}

func (c *Client) jobByKey(key string) (JobView, error) {
	req, err := http.NewRequest(http.MethodGet, c.Base+"/v1/jobs/"+key, nil)
	if err != nil {
		return JobView{}, err
	}
	var v JobView
	if err := c.do(req, http.StatusOK, &v); err != nil {
		return JobView{}, err
	}
	return v, nil
}

// Cancel withdraws or kills a job asynchronously.
func (c *Client) Cancel(id int) (Op, error) {
	return c.cancelByKey(strconv.Itoa(id))
}

// CancelByName withdraws a job by its idempotency name.
func (c *Client) CancelByName(name string) (Op, error) {
	return c.cancelByKey(name)
}

func (c *Client) cancelByKey(key string) (Op, error) {
	req, err := http.NewRequest(http.MethodDelete, c.Base+"/v1/jobs/"+url.PathEscape(key), nil)
	if err != nil {
		return Op{}, err
	}
	var op Op
	if err := c.do(req, http.StatusAccepted, &op); err != nil {
		return Op{}, err
	}
	return op, nil
}

// Stats fetches the cluster occupancy summary.
func (c *Client) Stats() (svc.Stats, error) {
	req, err := http.NewRequest(http.MethodGet, c.Base+"/v1/cluster", nil)
	if err != nil {
		return svc.Stats{}, err
	}
	var st svc.Stats
	if err := c.do(req, http.StatusOK, &st); err != nil {
		return svc.Stats{}, err
	}
	return st, nil
}

// Snapshot asks the daemon to checkpoint to its configured path.
func (c *Client) Snapshot() error {
	req, err := http.NewRequest(http.MethodPost, c.Base+"/v1/snapshot", nil)
	if err != nil {
		return err
	}
	return c.do(req, http.StatusOK, nil)
}
