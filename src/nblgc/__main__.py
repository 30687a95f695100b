from .options import run

run()
