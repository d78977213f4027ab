(* How much CPU time the hypervisor stole while each sample ran.

   On a shared virtual machine the host takes CPU time away from the
   guest in bursts ("steal" in /proc/stat), and every latency that
   overlaps a burst grows with it.  A monitor thread reads the system's
   steal and busy ticks every [interval] seconds; [exposure a b] is the
   stolen share of the guest's non-idle CPU time between the readings
   around [a, b].  (A share of all CPU time would rate a stretch where
   the guest idles as quiet whatever the host does, and so favour
   light ops.)  The metrics are then computed over the quieter samples
   (see [Main.quiet]), so that a run does not read slower only because
   the host was busy. *)

let interval = 0.1

(* Steal ticks and non-idle ticks (steal included) since boot, from the
   first line of /proc/stat; (0, 0) where unavailable. *)
let cpu_ticks () =
  let line =
    match open_in_bin "/proc/stat" with
    | exception Sys_error _ -> ""
    | ic -> Fun.protect ~finally:(fun () -> close_in ic) (fun () -> try input_line ic with End_of_file -> "")
  in
  match String.split_on_char ' ' line with
  | "cpu" :: fields -> (
      let ticks = List.filter_map int_of_string_opt fields in
      match List.nth_opt ticks 7 with
      | Some steal ->
          (* user nice system idle iowait irq softirq steal ... *)
          let idle = List.nth ticks 3 + List.nth ticks 4 in
          (steal, List.fold_left ( + ) 0 ticks - idle)
      | None -> (0, 0))
  | _ -> (0, 0)

type reading = { at : float; steal : int; busy : int }

type t = {
  mutable readings : reading list;  (** newest first *)
  mutable stopped : bool;
  lock : Mutex.t;
  mutable thread : Thread.t option;
}

let read () =
  let steal, busy = cpu_ticks () in
  { at = Unix.gettimeofday (); steal; busy }

let start () =
  let t = { readings = [ read () ]; stopped = false; lock = Mutex.create (); thread = None } in
  let rec loop () =
    Thread.delay interval;
    let r = read () in
    let go =
      Mutex.protect t.lock (fun () ->
          t.readings <- r :: t.readings;
          not t.stopped)
    in
    if go then loop ()
  in
  t.thread <- Some (Thread.create loop ());
  t

(* Stop the thread, wait for it, and return the readings in time order. *)
let stop t =
  Mutex.protect t.lock (fun () -> t.stopped <- true);
  Option.iter Thread.join t.thread;
  t.thread <- None;
  let last = read () in
  Array.of_list (List.rev (last :: t.readings))

(* Stolen share of non-idle CPU time from the last reading at or before
   [a] to the first at or after [b] (the ends of the readings where none
   is). *)
let exposure readings a b =
  let n = Array.length readings in
  if n < 2 then 0.
  else
    (* number of readings for which [before r] holds (a prefix) *)
    let count before =
      let rec go lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if before readings.(mid) then go (mid + 1) hi else go lo mid
      in
      go 0 n
    in
    let i = max 0 (min (n - 2) (count (fun r -> r.at <= a) - 1)) in
    let j = max (i + 1) (min (n - 1) (count (fun r -> r.at < b))) in
    let busy = readings.(j).busy - readings.(i).busy in
    if busy <= 0 then 0. else float_of_int (readings.(j).steal - readings.(i).steal) /. float_of_int busy

(* Stolen share of non-idle CPU time over all the readings. *)
let overall readings =
  let n = Array.length readings in
  if n < 2 then 0. else exposure readings readings.(0).at readings.(n - 1).at
