//! Collects metrics, operation counts and failed output checks, and
//! prints them: one `name value unit` line per metric, then the result
//! as a single JSON line.

pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.fail(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push((name, value, unit));
    }

    /// Records a failed output check.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }

    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(msg());
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Prints every metric, every failed check (to stderr), and the JSON
    /// result as the last line of stdout.
    pub fn print(&self) {
        for e in &self.errors {
            eprintln!("CHECK FAILED: {e}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<44} {value:>16.4} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, v, _)| v.is_finite())
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}
