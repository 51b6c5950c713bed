//! The line protocol: parsing and rendering.
//!
//! # Grammar
//!
//! One query per `\n`-terminated line (a trailing `\r` is tolerated),
//! ASCII tokens separated by whitespace:
//!
//! ```text
//! USER <id>             per-user activity row
//! MTTI                  mean time to interruption (job log)
//! MTTI <severity>       mean days between RAS events ≥ severity
//! RATE-BY-SCALE         failure-rate-by-nodes curve + Spearman rho
//! AFFECTED <severity>   jobs affected by RAS events ≥ severity
//! TOPK <k>              top-k users by job count
//! STATS                 epoch, coverage, availability, degradation
//! ```
//!
//! `<severity>` is `INFO`, `WARN`, or `FATAL`. Replies are framed as
//!
//! ```text
//! OK <epoch> <n>\n      then exactly n payload lines, or
//! ERR <reason>\n
//! ```
//!
//! so a client always knows how many lines to read, and every `OK`
//! carries the epoch tag the response was answered from (the handle the
//! soak tests use to prove reads are never torn: the tag is monotonic
//! per connection). Replies are rendered from the epoch's owned data
//! only — no wall-clock, no per-connection state — so two daemons over
//! identical data answer byte-identically.

use bgq_model::Severity;

use crate::epoch::Epoch;

/// Upper bound on one query line's bytes (excluding the newline). The
/// longest legal query is far below this; anything longer answers `ERR`
/// and the connection skips to the next newline, keeping per-connection
/// buffer growth bounded.
pub const MAX_LINE: usize = 1024;

/// A parsed query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// `USER <id>`
    User(u32),
    /// `MTTI` (job-log interruptions) or `MTTI <severity>` (RAS gaps).
    Mtti(Option<Severity>),
    /// `RATE-BY-SCALE`
    RateByScale,
    /// `AFFECTED <severity>`
    Affected(Severity),
    /// `TOPK <k>`
    TopK(usize),
    /// `STATS`
    Stats,
}

impl Query {
    /// Stable label for metrics (`serve.queries{kind}`).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Query::User(_) => "user",
            Query::Mtti(_) => "mtti",
            Query::RateByScale => "rate-by-scale",
            Query::Affected(_) => "affected",
            Query::TopK(_) => "topk",
            Query::Stats => "stats",
        }
    }
}

fn parse_severity(token: &str) -> Result<Severity, String> {
    token
        .parse::<Severity>()
        .map_err(|_| format!("bad severity {token:?} (INFO, WARN, or FATAL)"))
}

/// Parses one protocol line into a [`Query`].
///
/// # Errors
///
/// Returns the human-readable reason the line is malformed (the text
/// that goes after `ERR`).
pub fn parse_query(line: &str) -> Result<Query, String> {
    let mut parts = line.split_whitespace();
    let cmd = parts.next().ok_or_else(|| "empty query".to_owned())?;
    let query = match cmd {
        "USER" => {
            let id = parts.next().ok_or_else(|| "USER needs an id".to_owned())?;
            Query::User(
                id.parse::<u32>()
                    .map_err(|_| format!("bad user id {id:?}"))?,
            )
        }
        "MTTI" => Query::Mtti(match parts.next() {
            None => None,
            Some(tok) => Some(parse_severity(tok)?),
        }),
        "RATE-BY-SCALE" => Query::RateByScale,
        "AFFECTED" => {
            let tok = parts
                .next()
                .ok_or_else(|| "AFFECTED needs a severity".to_owned())?;
            Query::Affected(parse_severity(tok)?)
        }
        "TOPK" => {
            let k = parts.next().ok_or_else(|| "TOPK needs a count".to_owned())?;
            Query::TopK(
                k.parse::<usize>()
                    .map_err(|_| format!("bad count {k:?}"))?,
            )
        }
        "STATS" => Query::Stats,
        other => return Err(format!("unknown command {other:?}")),
    };
    if parts.next().is_some() {
        return Err(format!("trailing arguments after {cmd}"));
    }
    Ok(query)
}

/// Renders an `ERR` reply (newlines in the reason are flattened so the
/// framing survives).
#[must_use]
pub fn error_reply(reason: &str) -> String {
    format!("ERR {}\n", reason.replace(['\n', '\r'], " "))
}

fn fmt_opt_days(v: Option<f64>) -> String {
    v.map_or_else(|| "none".to_owned(), |x| format!("{x:.4}"))
}

/// Answers `query` from `epoch`, fully framed (`OK` header + payload).
#[must_use]
pub fn respond(epoch: &Epoch, query: &Query) -> String {
    let payload = payload_lines(epoch, query);
    let mut out = format!("OK {} {}\n", epoch.epoch, payload.len());
    for line in payload {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

fn payload_lines(epoch: &Epoch, query: &Query) -> Vec<String> {
    match query {
        Query::User(id) => {
            let (jobs, failed, ns, ch) = epoch.user(*id).map_or((0, 0, 0, 0.0), |r| {
                (r.jobs, r.failed, r.node_seconds, r.core_hours)
            });
            vec![format!(
                "user {id} jobs {jobs} failed {failed} node-seconds {ns} core-hours {ch:.3}"
            )]
        }
        Query::Mtti(None) => {
            let i = &epoch.interruptions;
            vec![format!(
                "interrupted-jobs {} span-days {:.4} mtti-days {}",
                i.interrupted_jobs,
                i.span_days,
                fmt_opt_days(i.mtti_days)
            )]
        }
        Query::Mtti(Some(sev)) => {
            let slot = Epoch::severity_slot(*sev);
            let events = epoch.events_at_least[slot];
            let span = epoch.interruptions.span_days;
            let mean = (events > 0).then(|| span / events as f64);
            vec![format!(
                "severity {} events {events} span-days {span:.4} mean-days-between {}",
                sev.name(),
                fmt_opt_days(mean)
            )]
        }
        Query::RateByScale => {
            let curve = &epoch.rate_by_scale;
            let mut lines: Vec<String> = curve
                .buckets
                .iter()
                .map(|b| {
                    format!(
                        "bucket {} jobs {} failed {} rate {:.6}",
                        b.label,
                        b.jobs,
                        b.failed,
                        b.rate()
                    )
                })
                .collect();
            lines.push(format!(
                "spearman {}",
                curve
                    .spearman_rho
                    .map_or_else(|| "none".to_owned(), |r| format!("{r:.6}"))
            ));
            lines
        }
        Query::Affected(sev) => {
            let (jobs, events) = epoch.affected[Epoch::severity_slot(*sev)];
            vec![format!(
                "severity {} affected-jobs {jobs} attributed-events {events}",
                sev.name()
            )]
        }
        Query::TopK(k) => epoch
            .per_user
            .iter()
            .take(*k)
            .map(|r| {
                format!(
                    "user {} jobs {} failed {} core-hours {:.3}",
                    r.id, r.jobs, r.failed, r.core_hours
                )
            })
            .collect(),
        Query::Stats => {
            let mut lines = vec![
                format!("epoch {}", epoch.epoch),
                format!(
                    "days {} last {}",
                    epoch.days.len(),
                    epoch
                        .days
                        .last()
                        .map_or_else(|| "none".to_owned(), ToString::to_string)
                ),
                format!(
                    "rows jobs {} ras {} tasks {} io {}",
                    epoch.rows[0], epoch.rows[1], epoch.rows[2], epoch.rows[3]
                ),
                format!("users {}", epoch.per_user.len()),
            ];
            let degraded = epoch.degraded_tables();
            if degraded.is_empty() {
                lines.push("degraded none".to_owned());
            } else {
                lines.push(format!("degraded {}", degraded.join(",")));
            }
            for q in &epoch.quarantined {
                lines.push(format!("quarantine {} {} {}", q.table, q.day, q.reason));
            }
            lines
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        assert_eq!(parse_query("USER 42"), Ok(Query::User(42)));
        assert_eq!(parse_query("MTTI"), Ok(Query::Mtti(None)));
        assert_eq!(
            parse_query("MTTI FATAL"),
            Ok(Query::Mtti(Some(Severity::Fatal)))
        );
        assert_eq!(parse_query("RATE-BY-SCALE"), Ok(Query::RateByScale));
        assert_eq!(
            parse_query("AFFECTED WARN"),
            Ok(Query::Affected(Severity::Warn))
        );
        assert_eq!(parse_query("TOPK 10"), Ok(Query::TopK(10)));
        assert_eq!(parse_query("STATS"), Ok(Query::Stats));
        assert_eq!(parse_query("  STATS  "), Ok(Query::Stats));
    }

    #[test]
    fn rejects_malformed_lines_with_reasons() {
        for bad in [
            "", "  ", "user 1", "USER", "USER x", "USER -1", "MTTI loud", "AFFECTED",
            "AFFECTED 3", "TOPK", "TOPK -2", "TOPK 1 2", "STATS now", "NOPE",
        ] {
            assert!(parse_query(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn error_reply_stays_one_line() {
        assert_eq!(error_reply("a\nb\rc"), "ERR a b c\n");
    }

    #[test]
    fn empty_epoch_answers_every_query() {
        let e = Epoch::empty();
        for q in [
            Query::User(7),
            Query::Mtti(None),
            Query::Mtti(Some(Severity::Fatal)),
            Query::RateByScale,
            Query::Affected(Severity::Info),
            Query::TopK(5),
            Query::Stats,
        ] {
            let reply = respond(&e, &q);
            assert!(reply.starts_with("OK 0 "), "{reply}");
            let n: usize = reply
                .lines()
                .next()
                .unwrap()
                .split_whitespace()
                .nth(2)
                .unwrap()
                .parse()
                .unwrap();
            assert_eq!(reply.lines().count(), n + 1, "frame miscounts: {reply}");
        }
    }
}
