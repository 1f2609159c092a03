//! The bundled analysis scripts used by the evaluation (§6).
//!
//! These play the role of Bro's default HTTP and DNS scripts: "extensive
//! logs of the corresponding protocol activity, correlating state across
//! request and reply pairs, plus (in the case of HTTP) extracting and
//! identifying message bodies". Log lines are tab-separated with timestamp
//! and uid first (the columns the Table 2/3 normalization strips).

/// HTTP analysis: correlates requests with replies, writes `http.log`, and
/// performs file analysis (MIME identification + SHA-1) into `files.log`.
/// Its per-connection tables are emptied by `connection_state_remove`, so
/// they hold only connections still open.
pub const HTTP_BRO: &str = r#"
# Per-connection request queues (pipelining-aware).
global req_method: table[string] of vector of string;
global req_uri: table[string] of vector of string;
global req_version: table[string] of vector of string;
global req_host: table[string] of vector of string;
global req_len: table[string] of vector of count;
global req_next: table[string] of count;
global cur_addrs: table[string] of string;

# In-flight response state.
global resp_status: table[string] of count;
global resp_reason: table[string] of string;
global resp_ct: table[string] of string;
global resp_body: table[string] of string;

event http_request(uid: string, orig_h: addr, resp_h: addr, method: string, uri: string, version: string) {
    if ( uid in req_method ) {
        req_method[uid][|req_method[uid]|] = method;
        req_uri[uid][|req_uri[uid]|] = uri;
        req_version[uid][|req_version[uid]|] = version;
        req_host[uid][|req_host[uid]|] = "-";
    } else {
        local m: vector of string = vector();
        m[0] = method;
        req_method[uid] = m;
        local u: vector of string = vector();
        u[0] = uri;
        req_uri[uid] = u;
        local v: vector of string = vector();
        v[0] = version;
        req_version[uid] = v;
        local h: vector of string = vector();
        h[0] = "-";
        req_host[uid] = h;
        req_next[uid] = 0;
    }
    cur_addrs[uid] = cat(orig_h, "\t", resp_h);
}

event http_header(uid: string, is_orig: bool, name: string, value: string) {
    if ( is_orig ) {
        if ( to_lower(name) == "host" && uid in req_host ) {
            if ( |req_host[uid]| > 0 )
                req_host[uid][|req_host[uid]| - 1] = value;
        }
    } else {
        if ( to_lower(name) == "content-type" )
            resp_ct[uid] = value;
    }
}

event http_reply(uid: string, orig_h: addr, resp_h: addr, status: count, reason: string, version: string) {
    resp_status[uid] = status;
    resp_reason[uid] = reason;
    cur_addrs[uid] = cat(orig_h, "\t", resp_h);
}

event http_body_data(uid: string, is_orig: bool, data: string) {
    if ( !is_orig ) {
        if ( uid in resp_body )
            resp_body[uid] = resp_body[uid] + data;
        else
            resp_body[uid] = data;
    }
}

event http_message_done(uid: string, is_orig: bool, body_len: count) {
    if ( is_orig ) {
        # Record the request body length against its queue slot.
        if ( uid in req_len ) {
            req_len[uid][|req_len[uid]|] = body_len;
        } else {
            local l: vector of count = vector();
            l[0] = body_len;
            req_len[uid] = l;
        }
        return;
    }
    # Response complete: correlate with the oldest outstanding request.
    local idx = 0;
    if ( uid in req_next )
        idx = req_next[uid];
    local method = "-";
    local uri = "-";
    local version = "-";
    local host = "-";
    local rlen = 0;
    if ( uid in req_method && idx < |req_method[uid]| ) {
        method = req_method[uid][idx];
        uri = req_uri[uid][idx];
        version = req_version[uid][idx];
        host = req_host[uid][idx];
    }
    if ( uid in req_len && idx < |req_len[uid]| )
        rlen = req_len[uid][idx];
    local status = 0;
    if ( uid in resp_status )
        status = resp_status[uid];
    local reason = "-";
    if ( uid in resp_reason )
        reason = resp_reason[uid];
    local body = "";
    if ( uid in resp_body )
        body = resp_body[uid];
    local declared = "-";
    if ( uid in resp_ct )
        declared = resp_ct[uid];
    local mime = "-";
    if ( |body| > 0 )
        mime = mime_type(sub_str(body, 0, 256), declared);
    local addrs = "-\t-";
    if ( uid in cur_addrs )
        addrs = cur_addrs[uid];

    log_write("http.log", cat(network_time(), "\t", uid, "\t", addrs, "\t",
        method, "\t", host, "\t", uri, "\t", version, "\t", status, "\t",
        reason, "\t", rlen, "\t", body_len, "\t", mime));

    if ( body_len > 0 )
        log_write("files.log", cat(network_time(), "\t", uid, "\t", mime,
            "\t", body_len, "\t", sha1(body)));

    req_next[uid] = idx + 1;
    delete resp_body[uid];
    delete resp_ct[uid];
    delete resp_status[uid];
    delete resp_reason[uid];
}

# The connection ended: nothing more will be correlated under its uid.
event connection_state_remove(uid: string) {
    delete req_method[uid];
    delete req_uri[uid];
    delete req_version[uid];
    delete req_host[uid];
    delete req_len[uid];
    delete req_next[uid];
    delete cur_addrs[uid];
    delete resp_status[uid];
    delete resp_reason[uid];
    delete resp_ct[uid];
    delete resp_body[uid];
}
"#;

/// DNS analysis: correlates queries with responses and writes `dns.log`.
pub const DNS_BRO: &str = r#"
global q_query: table[string] of string &create_expire=120.0;
global q_qtype: table[string] of count &create_expire=120.0;
global q_addrs: table[string] of string &create_expire=120.0;

event dns_request(uid: string, orig_h: addr, resp_h: addr, trans_id: count, query: string, qtype: count) {
    local k = cat(uid, "-", trans_id);
    q_query[k] = query;
    q_qtype[k] = qtype;
    q_addrs[k] = cat(orig_h, "\t", resp_h);
}

event dns_reply(uid: string, orig_h: addr, resp_h: addr, trans_id: count, rcode: count, answers: vector of string, ttls: vector of count) {
    local k = cat(uid, "-", trans_id);
    local query = "-";
    local qt = "-";
    if ( k in q_query ) {
        query = q_query[k];
        qt = qtype_name(q_qtype[k]);
    }
    local addrs = cat(resp_h, "\t", orig_h);
    if ( k in q_addrs )
        addrs = q_addrs[k];
    local ans = "-";
    if ( |answers| > 0 )
        ans = join(answers, ",");
    local tt = "-";
    if ( |ttls| > 0 )
        tt = join(ttls, ",");
    log_write("dns.log", cat(network_time(), "\t", uid, "\t", addrs, "\t",
        trans_id, "\t", query, "\t", qt, "\t", rcode_name(rcode), "\t",
        ans, "\t", tt));
    delete q_query[k];
    delete q_qtype[k];
    delete q_addrs[k];
}
"#;

/// Figure 8's `track.bro`: record responder addresses of established
/// connections, print them at shutdown.
pub const TRACK_BRO: &str = r#"
global hosts: set[addr];

event connection_established(uid: string, orig_h: addr, orig_p: port, resp_h: addr, resp_p: port) {
    add hosts[resp_h];
}

event bro_done() {
    for ( i in hosts )
        print i;
}
"#;

/// The §6.5 Fibonacci baseline benchmark script.
pub const FIB_BRO: &str = r#"
function fib(n: count): count {
    if ( n < 2 )
        return n;
    return fib(n - 1) + fib(n - 2);
}
"#;

/// Figure 8(a) of the paper, **verbatim** (record-style): tracks responder
/// addresses of established connections via `c$id$resp_h`.
pub const TRACK_BRO_FIGURE8: &str = r#"
global hosts: set[addr];

event connection_established(c: connection) {
    add hosts[c$id$resp_h];
}

event bro_done() {
    for ( i in hosts )
        print i;
}
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_script;

    #[test]
    fn bundled_scripts_parse() {
        for (name, src) in [
            ("http", HTTP_BRO),
            ("dns", DNS_BRO),
            ("track", TRACK_BRO),
            ("fib", FIB_BRO),
        ] {
            parse_script(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn bundled_scripts_compile_to_hilti() {
        for (name, src) in [
            ("http", HTTP_BRO),
            ("dns", DNS_BRO),
            ("track", TRACK_BRO),
            ("fib", FIB_BRO),
        ] {
            let script = parse_script(src).unwrap();
            let hilti_src =
                crate::compile::compile_script(&script).unwrap_or_else(|e| panic!("{name}: {e}"));
            hilti::Program::from_source(&hilti_src)
                .unwrap_or_else(|e| panic!("{name}: {e}\n{hilti_src}"));
        }
    }
}
