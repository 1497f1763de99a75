package campaign

import (
	"encoding/json"
	"errors"
	"net/http"

	"rvcte/internal/obs"
)

// NewServer wires the coordinator into an HTTP control plane, grown out
// of the obs diagnostics handler (which keeps serving /metrics and
// /debug/pprof on the same address):
//
//	POST   /campaigns                — create (Spec in, Status out, 201)
//	GET    /campaigns                — list ([]Status)
//	GET    /campaigns/{id}           — status
//	DELETE /campaigns/{id}           — graceful cancel (Status out)
//	GET    /campaigns/{id}/findings  — NDJSON finding stream; one
//	                                   WireFinding per line, closes when
//	                                   the campaign leaves "running"
//	POST   /campaigns/{id}/lease     — worker: claim work (LeaseRequest/Lease)
//	POST   /campaigns/{id}/results   — worker: return a lease (Result/ResultReply)
//	POST   /campaigns/{id}/heartbeat — worker: extend a lease ({"lease": id}/HeartbeatReply)
//
// All bodies are JSON. Unknown campaigns are 404, malformed bodies and
// bodies with unknown fields 400, bodies over maxBodyBytes 413, invalid
// specs 422.
func NewServer(co *Coordinator, o *obs.Obs) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", obs.Handler(o))

	mux.HandleFunc("POST /campaigns", func(w http.ResponseWriter, r *http.Request) {
		var spec Spec
		if !decode(w, r, &spec) {
			return
		}
		st, err := co.Create(spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		reply(w, http.StatusCreated, st)
	})
	mux.HandleFunc("GET /campaigns", func(w http.ResponseWriter, r *http.Request) {
		reply(w, http.StatusOK, co.List())
	})
	mux.HandleFunc("GET /campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := co.Status(r.PathValue("id"))
		if err != nil {
			http.NotFound(w, r)
			return
		}
		reply(w, http.StatusOK, st)
	})
	mux.HandleFunc("DELETE /campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := co.Cancel(r.PathValue("id"))
		if err != nil {
			http.NotFound(w, r)
			return
		}
		reply(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /campaigns/{id}/findings", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if _, err := co.Status(id); err != nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		if flusher != nil {
			flusher.Flush() // commit headers before the first (possibly late) finding
		}
		enc := json.NewEncoder(w)
		idx := 0
		for {
			fs, state, err := co.FindingsSince(r.Context(), id, idx)
			if err != nil {
				return // client went away (or campaign deleted)
			}
			for _, f := range fs {
				if enc.Encode(&f) != nil {
					return
				}
			}
			idx += len(fs)
			if flusher != nil {
				flusher.Flush()
			}
			if state != StateRunning {
				return
			}
		}
	})
	mux.HandleFunc("POST /campaigns/{id}/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decode(w, r, &req) {
			return
		}
		l, err := co.Lease(r.PathValue("id"), req)
		if err != nil {
			http.NotFound(w, r)
			return
		}
		reply(w, http.StatusOK, l)
	})
	mux.HandleFunc("POST /campaigns/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		var res Result
		if !decode(w, r, &res) {
			return
		}
		rr, err := co.Result(r.PathValue("id"), res)
		if err != nil {
			http.NotFound(w, r)
			return
		}
		reply(w, http.StatusOK, rr)
	})
	mux.HandleFunc("POST /campaigns/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var hb struct {
			Lease string `json:"lease"`
		}
		if !decode(w, r, &hb) {
			return
		}
		h, err := co.Heartbeat(r.PathValue("id"), hb.Lease)
		if err != nil {
			http.NotFound(w, r)
			return
		}
		reply(w, http.StatusOK, h)
	})
	return mux
}

// maxBodyBytes caps a request body. The largest body a campaign-tcpip
// sweep sends, a lease's results, is about 180 KB; the cap leaves a
// margin of more than 40 times for larger packets and batches.
const maxBodyBytes = 8 << 20

// decode reads one JSON value of r's body into v. A body over
// maxBodyBytes is refused with 413 after reading at most that much, and
// a malformed body or one naming a field v does not have with 400.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad request body: "+err.Error(), code)
		return false
	}
	return true
}

func reply(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
