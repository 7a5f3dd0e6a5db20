--------------------------- MODULE Registration ---------------------------
(***************************************************************************)
(* TLA+ specification of the single-word registration protocol used for   *)
(* deterministic team-building (Wimmer & Traeff, SPAA 2011, Section 3;    *)
(* DESIGN.md Section 9; crates/registration/src/lib.rs).                   *)
(*                                                                         *)
(* The whole coordination state is one 64-bit word with four u16 fields   *)
(*   r = required   threads the current task needs                         *)
(*   a = acquired   threads registered so far (incl. the coordinator)     *)
(*   t = teamed     size of the formed team (1 = no team)                  *)
(*   n = counter    renewal counter: registrations taken under an older   *)
(*                  value are void and must not decrement `a` again        *)
(* mutated only by CAS, so every transition below is one atomic step.      *)
(*                                                                         *)
(* Critical invariants verified:                                           *)
(*   R1: WellFormed      - 1 <= t <= a <= r at every reachable state       *)
(*   R2: NoTornTeam      - a formed team (t > 1) satisfies t = a = r:      *)
(*                         membership and size change in the same step     *)
(*   R3: ExactlyOnceSlot - live registrations never exceed a - 1: no       *)
(*                         thief double-registers, no slot is lost         *)
(*   R4: NoDoubleRelease - a release under a stale counter is revoked      *)
(*                         and never decrements `a` (a >= t always)        *)
(*   R5: Progress        - once a >= r, a team can always be formed        *)
(*   R6: NoTornReuse     - a warm-reuse claim (DESIGN.md Section 15) is    *)
(*                         never invalidated behind the coordinator's      *)
(*                         back: while a claim is outstanding the word is  *)
(*                         either still exactly the claimed team or was    *)
(*                         renewed by an explicit counter bump.  Thief     *)
(*                         transitions are write-quiescent on a formed     *)
(*                         idle team (a = r blocks Acquire, a = t blocks   *)
(*                         ReleaseValid), which is what makes the          *)
(*                         one-load try_reuse claim safe.                  *)
(*                                                                         *)
(* Model-checked counterparts: crates/model/tests/registration_model.rs    *)
(*   R1,R2 <-> acquire_race_admits_exactly_one_thief,                      *)
(*             form_vs_release_is_atomic                                   *)
(*   R3    <-> acquire_race_explored_under_plain_sc                        *)
(*   R4    <-> release_vs_renewal_never_double_decrements                  *)
(* and crates/model/tests/moldable_model.rs                                *)
(*   R6    <-> reuse_claim_vs_disband_is_atomic,                           *)
(*             warm_publication_reaches_the_pooled_member                  *)
(***************************************************************************)

EXTENDS Integers, FiniteSets, TLC

CONSTANTS
    Thieves,          \* Set of thief thread ids (the coordinator is implicit)
    MaxRequired,      \* Largest requirement the coordinator may publish
    MaxCounter        \* Renewal-counter bound for model checking

ASSUME Cardinality(Thieves) > 0
ASSUME MaxRequired >= 2
ASSUME MaxCounter >= 1

VARIABLES
    word,             \* [r, a, t, n] - the packed registration word
    thiefState,       \* Function: Thief -> {"idle", "registered", "done"}
    thiefCounter,     \* Function: Thief -> counter value seen at registration
    reuseClaim        \* Snapshot held by an outstanding warm-reuse claim,
                      \* or the string "none" (DESIGN.md Section 15)

vars == <<word, thiefState, thiefCounter, reuseClaim>>

-----------------------------------------------------------------------------
(* Type definitions *)

Word == [r: 1..MaxRequired, a: 1..MaxRequired,
         t: 1..MaxRequired, n: 0..MaxCounter]

TypeOK ==
    /\ word \in Word
    /\ thiefState \in [Thieves -> {"idle", "registered", "done"}]
    /\ thiefCounter \in [Thieves -> 0..MaxCounter]
    /\ reuseClaim \in Word \cup {"none"}

(* Thieves whose registration is still live under the current counter. *)
LiveRegistered ==
    {th \in Thieves : thiefState[th] = "registered" /\ thiefCounter[th] = word.n}

(* The try_reuse predicate: a fully formed, un-renewed, idle team.  Any   *)
(* new requirement at or below t rides it as-is (surplus members get      *)
(* is_surplus local ids, Refinement 2), so the claim does not depend on   *)
(* the next task's exact requirement.                                      *)
WarmTeam == word.t > 1 /\ word.a = word.t /\ word.r = word.t

-----------------------------------------------------------------------------
(* Initial state: the coordinator's singleton "team" of itself. *)

Init ==
    /\ word = [r |-> 1, a |-> 1, t |-> 1, n |-> 0]
    /\ thiefState = [th \in Thieves |-> "idle"]
    /\ thiefCounter = [th \in Thieves |-> 0]
    /\ reuseClaim = "none"

-----------------------------------------------------------------------------
(* Thief transitions (crates/registration try_acquire / try_release).     *)
(* Each models exactly one successful CAS; a failed CAS is a stutter.     *)

(* try_acquire: join the forming team while a slot is open.  The CAS      *)
(* publishes a+1 and the thief remembers the counter it registered under. *)
Acquire(th) ==
    /\ thiefState[th] = "idle"
    /\ word.a < word.r                      \* NotNeeded otherwise
    /\ word' = [word EXCEPT !.a = @ + 1]
    /\ thiefState' = [thiefState EXCEPT ![th] = "registered"]
    /\ thiefCounter' = [thiefCounter EXCEPT ![th] = word.n]
    /\ UNCHANGED reuseClaim

(* try_release with a still-valid counter and no team closed over us:     *)
(* decrement a.  Guard a > t mirrors the Teamed check in the code.        *)
ReleaseValid(th) ==
    /\ thiefState[th] = "registered"
    /\ thiefCounter[th] = word.n
    /\ word.a > word.t
    /\ word' = [word EXCEPT !.a = @ - 1]
    /\ thiefState' = [thiefState EXCEPT ![th] = "idle"]
    /\ UNCHANGED <<thiefCounter, reuseClaim>>

(* try_release under a stale counter: Revoked - the word is untouched.    *)
ReleaseRevoked(th) ==
    /\ thiefState[th] = "registered"
    /\ thiefCounter[th] # word.n
    /\ thiefState' = [thiefState EXCEPT ![th] = "idle"]
    /\ UNCHANGED <<word, thiefCounter, reuseClaim>>

(* try_release while the team closed over this thief: Teamed - the thief  *)
(* stays and will run the team task.                                      *)
ReleaseTeamed(th) ==
    /\ thiefState[th] = "registered"
    /\ thiefCounter[th] = word.n
    /\ word.a <= word.t
    /\ thiefState' = [thiefState EXCEPT ![th] = "done"]
    /\ UNCHANGED <<word, thiefCounter, reuseClaim>>

-----------------------------------------------------------------------------
(* Coordinator transitions (push_requirement / try_form_team / disband /  *)
(* try_reuse).                                                             *)

(* Publish a larger requirement: registered threads remain useful.        *)
PushGrow(newR) ==
    /\ newR \in 2..MaxRequired
    /\ newR > word.r
    /\ word.t = 1                           \* no team is active
    /\ word' = [word EXCEPT !.r = newR]
    /\ UNCHANGED <<thiefState, thiefCounter, reuseClaim>>

(* Publish a smaller requirement: acquired resets to the teamed size and  *)
(* the counter bump voids every outstanding registration (R4).            *)
PushShrink(newR) ==
    /\ newR \in 1..MaxRequired
    /\ newR < word.r
    /\ newR >= word.t
    /\ word.n < MaxCounter                  \* finite model bound
    /\ word' = [word EXCEPT !.r = newR, !.a = word.t, !.n = @ + 1]
    /\ UNCHANGED <<thiefState, thiefCounter, reuseClaim>>

(* try_form_team: only when complete (a >= r); one CAS sets t = a = r,    *)
(* so membership and team size can never tear apart (R2).                 *)
FormTeam ==
    /\ word.a >= word.r
    /\ word.r > 1
    /\ word.t = 1
    /\ word' = [word EXCEPT !.t = word.r, !.a = word.r]
    /\ UNCHANGED <<thiefState, thiefCounter, reuseClaim>>

(* disband: back to the singleton state with a bumped counter; teamed     *)
(* thieves observe the bump and leave on their own.  Covers every         *)
(* trigger of Section 15 - keep-alive expiry, a larger next task,         *)
(* shutdown - each is this same renewal step.                             *)
Disband ==
    /\ word.t > 1
    /\ word.n < MaxCounter
    /\ word' = [word EXCEPT !.r = 1, !.a = 1, !.t = 1, !.n = @ + 1]
    /\ UNCHANGED <<thiefState, thiefCounter, reuseClaim>>

(* try_reuse (Section 15): a pure one-load claim of the warm team for the *)
(* next task.  The word is untouched - the whole point of the fast path   *)
(* is that the claim is an Acquire load, not a CAS.                       *)
ReuseClaim ==
    /\ WarmTeam
    /\ reuseClaim = "none"
    /\ reuseClaim' = word
    /\ UNCHANGED <<word, thiefState, thiefCounter>>

(* The claimed publication completes (the seqlock write lands and the     *)
(* team runs the task): the claim is consumed and a new cycle begins.     *)
ReusePublish ==
    /\ reuseClaim # "none"
    /\ reuseClaim' = "none"
    /\ UNCHANGED <<word, thiefState, thiefCounter>>

-----------------------------------------------------------------------------

Next ==
    \/ \E th \in Thieves :
        Acquire(th) \/ ReleaseValid(th) \/ ReleaseRevoked(th) \/ ReleaseTeamed(th)
    \/ \E newR \in 1..MaxRequired : PushGrow(newR) \/ PushShrink(newR)
    \/ FormTeam
    \/ Disband
    \/ ReuseClaim
    \/ ReusePublish

Spec == Init /\ [][Next]_vars /\ WF_vars(FormTeam)

-----------------------------------------------------------------------------
(* Invariants *)

(* R1: the word is well-formed in every reachable state. *)
WellFormed ==
    /\ word.t >= 1
    /\ word.t <= word.a
    /\ word.a <= word.r

(* R2: no torn team - a formed team is exactly the closed registration.  *)
NoTornTeam == (word.t > 1) => (word.t = word.r /\ word.a = word.r)

(* R3: exactly-once registration - live thief registrations never exceed  *)
(* the acquired count minus the coordinator's own slot.                   *)
ExactlyOnceSlot == Cardinality(LiveRegistered) <= word.a - 1

(* R4: a stale release cannot push `a` below the teamed size.             *)
NoDoubleRelease == word.a >= word.t

(* R6: no torn reuse - while a warm-reuse claim is outstanding, the word  *)
(* is either still exactly the claimed team or was renewed by a counter   *)
(* bump the claimed members will observe.  A third state - the word       *)
(* drifting away from the claim without a renewal - would mean a thief    *)
(* perturbed a formed idle team, which the guards make impossible.        *)
NoTornReuse ==
    \/ reuseClaim = "none"
    \/ word = reuseClaim
    \/ word.n > reuseClaim.n

Invariants == TypeOK /\ WellFormed /\ NoTornTeam /\ ExactlyOnceSlot
              /\ NoDoubleRelease /\ NoTornReuse

(* R5: progress - whenever the word is complete for a multi-thread        *)
(* requirement, a team is eventually formed (fairness on FormTeam).       *)
Progress == [](((word.a >= word.r) /\ (word.r > 1) /\ (word.t = 1)) ~> (word.t > 1))

=============================================================================
\* Model-check with e.g.:
\*   Thieves    <- {t1, t2}
\*   MaxRequired<- 3
\*   MaxCounter <- 2
\* INVARIANTS Invariants
\* PROPERTIES Progress
