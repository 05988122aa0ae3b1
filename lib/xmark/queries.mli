(** The XMark query set (Q1-Q20) in the XQuery subset; adaptations from
    the originals are recorded per query. *)

(** One benchmark query: [id] is the XMark name ("Q1".."Q20"), [text]
    the runnable query, and [adapted] records how it deviates from the
    published original (None if verbatim). *)
type query = {
  id : string;
  description : string;
  text : string;
  adapted : string option;
}

(** All twenty queries, in XMark order. *)
val all : query list

(** Raises [Not_found] on an unknown id. *)
val by_id : string -> query

(** The Fig. 7 chart set (Q8/Q9 are reported separately). *)
val fig7_ids : string list

(** Fig. 5's plan for Q9 as one flat FOR: persons, closed auctions and
    European items joined by the two [where] equalities, one [<pair>]
    of person and item name per match. *)
val fig5_join : string
