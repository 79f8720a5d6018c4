//! Parallel rollout driving — the paper trains the low-level skills in
//! "parallel training environments" (Sec. V-C); this module provides the
//! worker fan-out.

/// Runs `workers` jobs on separate threads and collects their results in
/// worker order. Each job receives its worker index.
///
/// # Examples
///
/// ```
/// let squares = hero_rl::rollout::run_parallel(4, |w| w * w);
/// assert_eq!(squares, vec![0, 1, 4, 9]);
/// ```
pub fn run_parallel<T, F>(workers: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<Option<T>> = Vec::with_capacity(workers);
    out.resize_with(workers, || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let job = &job;
            handles.push(scope.spawn(move || job(w)));
        }
        for (slot, handle) in out.iter_mut().zip(handles) {
            *slot = Some(handle.join().expect("rollout worker panicked"));
        }
    });
    out.into_iter()
        .map(|v| v.expect("worker result set"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_parallel_preserves_worker_order() {
        let results = run_parallel(8, |w| w as i32 * 10);
        assert_eq!(results, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn run_parallel_single_worker() {
        assert_eq!(run_parallel(1, |_| "done"), vec!["done"]);
    }
}
