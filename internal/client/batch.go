package client

import (
	"encoding/json"
	"fmt"
	"net/http"

	"zkperf/internal/httpx"
)

// The unified /v1 batch convention: a batch body is {"items":[…]} and
// the response is {"results":[{"index",…}|{"index","error"}]}, with
// results index-aligned to items. The pre-unification {"requests":[…]}
// spelling is retired — servers reject it with invalid_request. These
// helpers are the one place the shape is spelled out — zkcli's batch
// verify and the gateway's scatter-gather both build and split batches
// through them.

// VerifyItem is one /v1/verify/batch request slot: the same fields as a
// single /v1/verify body. Proof is hex in the backend's serialization.
type VerifyItem struct {
	Curve   string   `json:"curve,omitempty"`
	Backend string   `json:"backend,omitempty"`
	Circuit string   `json:"circuit"`
	Proof   string   `json:"proof"`
	Public  []string `json:"public"`
}

// VerifyBatchResult is one /v1/verify/batch response slot. Exactly one
// of Valid and Err is set: a nil Valid means the item never reached the
// pairing check and Err says why.
type VerifyBatchResult struct {
	Index int             `json:"index"`
	Valid *bool           `json:"valid,omitempty"`
	Err   *httpx.Envelope `json:"error,omitempty"`
}

// VerifyBatch posts items to /v1/verify/batch and returns the
// index-aligned results. The call errors only on transport or whole-
// batch failures; per-item verdicts (including per-item errors) ride in
// the results.
func (c *Client) VerifyBatch(items []VerifyItem) ([]VerifyBatchResult, error) {
	payload, err := MarshalBatch(items)
	if err != nil {
		return nil, err
	}
	data, err := c.Do(http.MethodPost, "/v1/verify/batch", payload)
	if err != nil {
		return nil, err
	}
	raws, err := SplitBatchResults(data, len(items))
	if err != nil {
		return nil, err
	}
	out := make([]VerifyBatchResult, len(raws))
	for i, raw := range raws {
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			return nil, fmt.Errorf("decoding batch result %d: %v", i, err)
		}
	}
	return out, nil
}

// MarshalBatch wraps items (any slice) in the {"items":[…]} request
// envelope.
func MarshalBatch(items any) ([]byte, error) {
	return json.Marshal(map[string]any{"items": items})
}

// SplitBatchResults unwraps a {"results":[…]} batch response into its
// raw per-item messages, enforcing the index alignment contract: the
// server must answer one result per item, in order. want < 0 skips the
// count check.
func SplitBatchResults(data []byte, want int) ([]json.RawMessage, error) {
	var rep struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("decoding batch reply: %v", err)
	}
	if want >= 0 && len(rep.Results) != want {
		return nil, fmt.Errorf("batch reply has %d results, want %d", len(rep.Results), want)
	}
	return rep.Results, nil
}
