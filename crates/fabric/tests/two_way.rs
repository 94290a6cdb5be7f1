//! Two ranks that write large frames at each other never wedge: each
//! sends a burst of 2 MiB messages to the other before receiving
//! anything, so both directions' socket buffers fill at once, and
//! both must still receive the whole burst, in order.

use hipress_core::graph::TaskId;
use hipress_fabric::tcp::{connect_mesh, MeshConfig, TcpLink};
use hipress_fabric::Link;
use hipress_runtime::engine::{Msg, Payload};
use std::net::TcpListener;
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// 48 MiB a direction: more than a loopback socket's send and receive
/// buffers hold together under common `tcp_wmem` / `tcp_rmem` ceilings
/// (4 MiB, and 6–32 MiB), so both owners block in `write` while acks
/// flow back.
const MESSAGES: u32 = 24;
const ELEMS: usize = 512 * 1024; // 2 MiB of f32
const REPEATS: usize = 5;
const DEADLINE: Duration = Duration::from_secs(30);

/// One rank's side: the whole burst out, then the whole burst in.
fn exchange(mut link: TcpLink<Msg>, done: &Barrier) -> Result<(), String> {
    let me = link.me();
    let chunk = Arc::new(Payload::Raw(vec![me as f32; ELEMS]));
    for iter in 0..MESSAGES {
        let msg = Msg::Done {
            task: TaskId(me as u32),
            iter,
            payload: Some(Arc::clone(&chunk)),
        };
        link.send(1 - me, msg).map_err(|e| e.to_string())?;
    }
    for want in 0..MESSAGES {
        let got = link
            .recv_timeout(DEADLINE)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("rank {me}: message {want} never came"))?;
        let Msg::Done {
            iter,
            payload: Some(payload),
            ..
        } = got
        else {
            return Err(format!("rank {me}: message {want} is not a Done"));
        };
        let Payload::Raw(v) = &*payload else {
            return Err(format!("rank {me}: message {want} lost its payload"));
        };
        if iter != want || v.len() != ELEMS || v[0] != (1 - me) as f32 {
            return Err(format!("rank {me}: message {want} arrived as iter {iter}"));
        }
    }
    // Nobody drops a link (its FIN is a loss) until both are done.
    done.wait();
    Ok(())
}

#[test]
fn saturated_two_way_exchange_finishes() {
    for repeat in 0..REPEATS {
        let (listeners, addrs): (Vec<_>, Vec<_>) = (0..2)
            .map(|_| {
                let l = TcpListener::bind("127.0.0.1:0").unwrap();
                let a = l.local_addr().unwrap();
                (l, a)
            })
            .unzip();
        let done = Arc::new(Barrier::new(2));
        let (results, outcomes) = mpsc::channel();
        for (rank, listener) in listeners.into_iter().enumerate() {
            let (addrs, done, results) = (addrs.clone(), Arc::clone(&done), results.clone());
            std::thread::spawn(move || {
                let outcome =
                    connect_mesh::<Msg>(rank, 2, listener, &addrs, &MeshConfig::default())
                        .map_err(|e| e.to_string())
                        .and_then(|link| exchange(link, &done));
                let _ = results.send((rank, outcome));
            });
        }
        for _ in 0..2 {
            match outcomes.recv_timeout(DEADLINE) {
                Ok((rank, outcome)) => {
                    outcome.unwrap_or_else(|e| panic!("repeat {repeat}, rank {rank}: {e}"))
                }
                Err(_) => panic!("repeat {repeat}: the exchange wedged for {DEADLINE:?}"),
            }
        }
    }
}
