(* Seeded race-mutant corpus.

   Each mutant routes one access in a production module outside its
   protecting lock (or drops a happens-before edge) when activated by
   name.  The flag check at each site is one option deref plus a string
   compare, at call sites that are never in a solver hot loop.  Same
   shape as [Core.Mutations] (PR 3), but for concurrency bugs: the
   acceptance gate is that the detector flags every mutant under the
   explorer while the unmutated tree stays clean. *)

type info = { name : string; site : string; description : string }

let all : info list =
  [
    { name = "cache-unlocked-hit";
      site = "lib/service/cache.ml (find)";
      description = "hit bookkeeping updated after the cache lock is released" };
    { name = "cache-unlocked-insert";
      site = "lib/service/cache.ml (add)";
      description = "LRU list surgery performed outside the cache lock" };
    { name = "pool-unlocked-completed";
      site = "lib/service/pool.ml (worker)";
      description = "completed-job counter bumped outside the pool lock" };
    { name = "pool-unlocked-stop";
      site = "lib/service/pool.ml (shutdown)";
      description = "stopping flag set without taking the pool lock" };
    { name = "flight-role-outside-lock";
      site = "lib/server/single_flight.ml (join)";
      description = "leader/joiner role decided in an unlocked window" };
    { name = "flight-publish-unlocked";
      site = "lib/server/single_flight.ml (publish)";
      description = "publish reads and removes the entry without the table lock" };
    { name = "flight-progress-unfenced";
      site = "lib/server/single_flight.ml (progress)";
      description = "progress fan-out skips the per-entry fan lock and done check" };
    { name = "admission-unlocked-ewma";
      site = "lib/server/admission.ml (observe)";
      description = "EWMA updated with the admission lock released" };
  ]

let current : string option ref = ref None

let find name = List.find_opt (fun i -> String.equal i.name name) all

let activate name =
  match find name with
  | Some _ ->
    current := Some name;
    true
  | None -> false

let deactivate () = current := None
let active () = !current

let on name =
  match !current with Some n -> String.equal n name | None -> false
