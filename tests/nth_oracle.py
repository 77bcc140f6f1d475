"""The rule text of ``nth/3`` when it counted positions with church numerals: the oracle of the integer count.

``NTH`` is (the prelude's text, the text it replaced).  The old text
enumerated positions as ``s(s(...))`` terms with ``nth0/3`` and converted
each to an integer with ``church/2``, which counted up from zero again, so
reading every position of an n-item list took steps in n squared.  A test
puts the old text back in place of the new with ``str.replace(*NTH)``.
"""

NTH = (
    """\
nth(N,L,E):-
  var(N), !, childAt(L,1,E,N).
nth(N,L,E):-
  integer(N), N>=1,
  childAt(L,1,X,N), !, E=X.
""",
    """\
nth(N,L,E):-
  var(N), nth0(N1,L,E), church(N1,N).
nth(N,L,E):-
  church(N1,N), nth0(N1,L,E).

nth0(s(zero),[X|_],X).
nth0(s(M),[_|L],X):-nth0(M,L,X).
""",
)
