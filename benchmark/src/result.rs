//! What one repetition (one child process) reports to its parent: one
//! JSON object on the last line of its standard output.

use mapa::report::{parse_json, Json};
use std::collections::BTreeMap;

/// The result of one repetition of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RepResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// Operations submitted: jobs, or `try_allocate` calls for
    /// `alloc_churn`.
    pub attempted: u64,
    /// Operations that did not complete, plus causality violations
    /// (`submitted_at ≤ started_at ≤ finished_at` broken).
    pub failed: u64,
    /// Fingerprint of every placement made; equal across repetitions of
    /// one (workload, seed, size) or the program is not deterministic.
    pub digest: u64,
    /// Wall seconds of the timed region, as the clock gave them.
    pub wall_s: f64,
    /// The host-speed yardstick around the timed region, milliseconds.
    pub yardstick_ms: f64,
    /// Decision-latency samples behind the percentiles.
    pub samples: u64,
    /// Main-thread run-queue wait over the timed region, percent of wall.
    pub runq_wait_pct: f64,
    /// Metric name → value: every end-to-end metric from an untraced
    /// repetition, the per-layer metrics from a traced one.
    pub metrics: BTreeMap<String, f64>,
}

impl RepResult {
    /// One line of JSON. The digest is a hex string: a JSON number is an
    /// `f64` and cannot hold every 64-bit value.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", number(*v)))
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"attempted\": {}, \
             \"failed\": {}, \"digest\": \"{:016x}\", \"wall_s\": {}, \"yardstick_ms\": {}, \
             \"samples\": {}, \"runq_wait_pct\": {}, \"metrics\": {{{}}}}}",
            self.workload,
            self.seed,
            self.traced,
            self.attempted,
            self.failed,
            self.digest,
            number(self.wall_s),
            number(self.yardstick_ms),
            self.samples,
            number(self.runq_wait_pct),
            metrics.join(", ")
        )
    }

    /// Parses what [`RepResult::to_json`] wrote.
    pub fn from_json(line: &str) -> Result<Self, String> {
        let doc = parse_json(line).map_err(|e| e.to_string())?;
        Self::from_value(&doc)
    }

    pub fn from_value(doc: &Json) -> Result<Self, String> {
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing \"{key}\""));
        let num = |key: &str| {
            field(key)?
                .as_f64()
                .ok_or_else(|| format!("\"{key}\" is not a number"))
        };
        let text = |key: &str| {
            field(key)?
                .as_str()
                .ok_or_else(|| format!("\"{key}\" is not a string"))
        };
        let Json::Object(map) = field("metrics")? else {
            return Err("\"metrics\" is not an object".into());
        };
        let metrics = map
            .iter()
            .map(|(k, v)| {
                v.as_f64()
                    .map(|v| (k.clone(), v))
                    .ok_or_else(|| format!("metric \"{k}\" is not a number"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            workload: text("workload")?.to_string(),
            seed: num("seed")? as u64,
            traced: field("traced")? == &Json::Bool(true),
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            digest: u64::from_str_radix(text("digest")?, 16).map_err(|e| e.to_string())?,
            wall_s: num("wall_s")?,
            yardstick_ms: num("yardstick_ms")?,
            samples: num("samples")? as u64,
            runq_wait_pct: num("runq_wait_pct")?,
            metrics,
        })
    }
}

/// A JSON number with every digit `f64` round-trips through; non-finite
/// values (which JSON cannot express) become 0.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_then_parse_round_trips_every_field() {
        let r = RepResult {
            workload: "cube16_server".into(),
            seed: 11,
            traced: true,
            attempted: 5000,
            failed: 3,
            digest: 0xfedc_ba98_7654_3210,
            wall_s: 3.0123456789012345,
            yardstick_ms: 6.25,
            samples: 4997,
            runq_wait_pct: 0.25,
            metrics: [
                ("jobs_per_sec".to_string(), 1234.5678901234567),
                ("mapa-core.cache.hit_rate".to_string(), 0.57),
                ("tiny".to_string(), 1.5e-9),
            ]
            .into_iter()
            .collect(),
        };
        let line = r.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(RepResult::from_json(&line).unwrap(), r);
        assert!(RepResult::from_json("{\"workload\": 3}").is_err());
        assert!(RepResult::from_json("not json").is_err());
    }
}
