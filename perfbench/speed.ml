(* A clock that runs at a fixed reference speed.

   On a shared host the speed of one core can swing by a third within
   seconds, so raw wall time measures the neighbours as much as the
   program.  Every [period] seconds a timer signal runs a fixed,
   non-allocating calibration kernel and times it.  [now] advances by wall
   time scaled by [reference / kernel time] (the median of the last
   [window] kernel runs), and stands still while the kernel itself runs.
   A program that gets slower still reads slower; a core that gets slower
   does not.

   The kernel walks a 2 MiB array at pseudo-random offsets, so it sees
   both the core's speed and its memory system.  It allocates nothing, so
   its time does not depend on the program's heap. *)

let reference = 1e-3  (* seconds: [now] runs at the speed where one kernel run takes this *)
let period = 0.05
let window = 5

let buf = Array.make (1 lsl 18) 1

let kernel () =
  let a = buf and x = ref 12345 and s = ref 0 in
  for _ = 1 to 200_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = !x land ((1 lsl 18) - 1) in
    s := !s + a.(i);
    a.(i) <- !s land 0xff
  done;
  !s

(* Anchored as one immutable record, so a signal between two reads
   cannot pair an old anchor with a new factor. *)
type anchor = {
  wall : float;  (* wall time of the anchor *)
  at : float;  (* reference time of the anchor *)
  factor : float;  (* reference seconds per wall second since the anchor *)
}

let state = ref { wall = 0.; at = 0.; factor = 1. }
let recent = Array.make window reference
let runs = ref 0
let kernel_times = ref []  (* every kernel run, seconds, newest first *)

let now () =
  let s = !state in
  s.at +. ((Unix.gettimeofday () -. s.wall) *. s.factor)

let median a =
  let s = Array.copy a in
  Array.sort compare s;
  s.(Array.length s / 2)

let calibrate () =
  let entered = now () in
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()));
  let t1 = Unix.gettimeofday () in
  recent.(!runs mod window) <- t1 -. t0;
  incr runs;
  kernel_times := (t1 -. t0) :: !kernel_times;
  state := { wall = t1; at = entered; factor = reference /. median recent }

let set_timer interval =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = interval; it_value = interval })

(* Fill the window before anything is timed, then keep calibrating. *)
let start () =
  for _ = 1 to window do
    calibrate ()
  done;
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> calibrate ()));
  set_timer period

let stop () =
  set_timer 0.;
  Sys.set_signal Sys.sigalrm Sys.Signal_default

(* Median kernel time in seconds over the episode, for the run record. *)
let kernel_median () = median (Array.of_list !kernel_times)
