package obs

// RequestIDHeader is the HTTP header the schedd daemon (and any client that
// wants its IDs echoed back) uses to propagate a request identity. The
// server generates an ID when the header is absent, so every request has
// one.
const RequestIDHeader = "X-Request-Id"
