//! Test support, included by the gateway suites with `mod support;`.

use sw_gateway::{GatewayHandle, Ticket};
use sw_serve::SearchRequest;

/// Replay `schedule` open-loop against the gateway in real time: sleep
/// until each arrival instant (relative to the first call), submit, keep
/// the ticket. No submission waits on an outcome. Returns the tickets in
/// submission order.
pub fn drive(handle: &GatewayHandle, schedule: &[SearchRequest]) -> Vec<Ticket> {
    let base = handle.now();
    let mut tickets = Vec::with_capacity(schedule.len());
    for req in schedule {
        handle.wait_until(base + req.arrival_seconds);
        tickets.push(handle.submit(req.clone()));
    }
    tickets
}
