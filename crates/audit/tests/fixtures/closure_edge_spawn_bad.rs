//! Call-graph closure fixture (cross-file): `launch` reaches a function
//! in *another file* only through a `spawn` closure — proving closure
//! edges resolve across the workspace like any call.

pub fn launch(xs: Vec<u64>) {
    spawn(move || remote_step(&xs));
}

fn spawn<F: FnOnce()>(f: F) {
    f();
}
